"""Host-state probe: do two processes each get a CPU of their own?

Times a fixed pure-Python loop alone, then two copies at once in two
processes, best of 3 each, and prints the ratio of the two.  A ratio near 1
means two free CPUs; near 2 means the two copies shared one CPU.  Run it
beside a timing so that the timing can name the host state:

    python tools/two_loop.py
"""

import time
from multiprocessing import Pool


def loop(_=None) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(10_000_000):
        total += i
    return time.perf_counter() - start


if __name__ == "__main__":
    alone = min(loop() for _ in range(3))
    with Pool(2) as pool:
        both = min(max(pool.map(loop, range(2))) for _ in range(3))
    print(f"alone {alone:.3f} s, two at once {both:.3f} s, "
          f"ratio {both / alone:.2f}")
