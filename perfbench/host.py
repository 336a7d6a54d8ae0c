"""What a run record says about the host, read from ``/proc``.

Host steal, CPU count, CPU affinity and the filesystem under the work
directory are recorded with every run so that a noisy run can be told apart
from a regression.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path
from typing import Dict, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_times() -> List[int]:
    """Aggregate ``cpu`` jiffies from ``/proc/stat`` (user … guest_nice)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return [int(x) for x in fields[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of all CPU time the hypervisor stole between two samples.

    ``guest`` and ``guest_nice`` are already counted inside ``user`` and
    ``nice``, so only the first eight fields make up the total.
    """
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def process_tree(pid: int) -> List[int]:
    """*pid* and every live descendant, so a program that moves work into
    child processes is still measured whole."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parent = int(_stat_fields(int(entry))[1])
            except (OSError, IndexError, ValueError):
                continue  # the process ended while we looked
            children.setdefault(parent, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def tree_cpu_s(pid: int) -> float:
    """User plus system CPU seconds run by *pid* and its live descendants
    (``/proc/<pid>/stat``).

    CPU time counts only what the processes executed, so host steal does
    not inflate it the way it inflates wall time.
    """
    total = 0
    for member in process_tree(pid):
        try:
            fields = _stat_fields(member)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over *pid* and its live descendants, in MB (10^6
    bytes)."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb * 1024 / 1e6


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path* (longest mount prefix)."""
    target = str(Path(path).resolve())
    best, best_type = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            fields = line.split()
            mount, fs_type = fields[1], fields[2]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, best_type = mount, fs_type
    return best_type


def source_revision(root: Path) -> Dict[str, Optional[str]]:
    """The git revision when *root* is a git checkout, plus a digest of the
    program's sources, which identifies the code when it is not."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    revision = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            revision = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_revision": revision, "source_sha256": digest.hexdigest()[:16]}


def host_record(work: Path, root: Path) -> dict:
    """Static facts of the run: CPUs, filesystem under *work*, code identity."""
    return {"nproc": os.cpu_count(),
            "allowed_cpus": sorted(os.sched_getaffinity(0)),
            "work_filesystem": filesystem_of(work),
            **source_revision(root)}


def loadgen_cpu() -> int:
    """The CPU the load generator's threads pin themselves to."""
    return max(os.sched_getaffinity(0))


def pin_current_thread(cpu: int) -> List[int]:
    """Pin the calling thread (Linux: pid 0 is the calling thread) and
    return the affinity it now has."""
    os.sched_setaffinity(0, {cpu})
    return sorted(os.sched_getaffinity(0))
