"""How many of 20 forked children start on their parent's CPU.

Some kernels start a forked child on its parent's CPU and leave it there;
``bounds._split_map`` moves its two shares apart after its fork.  This
counts it without the package, and only reports (Linux only)::

    python tests/placement_probe.py
"""

import os


def cpu():
    with open("/proc/self/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


def main():
    same = 0
    for _ in range(20):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(write_end, str(cpu()).encode())
            os._exit(0)
        os.close(write_end)
        ours = cpu()
        theirs = int(os.read(read_end, 16))
        os.close(read_end)
        os.waitpid(pid, 0)
        same += ours == theirs
    print(f"{same} of 20 forked children started on their parent's CPU;", end=" ")
    print(f"the affinity mask holds {len(os.sched_getaffinity(0))} CPUs")


if __name__ == "__main__":
    main()
