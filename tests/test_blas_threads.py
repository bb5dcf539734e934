"""Graph and tick bytes do not depend on the BLAS thread count.

With long ADF designs (here 53 columns at --lags 51) a multithreaded BLAS
splits the scan's design products over threads, and the split used to
change a pair's last bits; so did gen's baseline-tick solve on a large
graph. The scan, the refits and that solve now pin numpy's bundled
OpenBLAS to one thread, so a build or a gen under OPENBLAS_NUM_THREADS=1
and one under the default thread count write the same bytes. Where numpy's BLAS
exports no thread control, or there is one core, there is nothing to pin
or to split, and these tests skip.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cointwatch import stats

pytestmark = pytest.mark.skipif(
    stats._openblas_threads() is None or (os.cpu_count() or 1) < 2,
    reason="numpy's BLAS exports no thread control, or one core only",
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cointwatch(argv, threads=None):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    subprocess.run([sys.executable, "-m", "cointwatch.cli", *argv], env=env, check=True,
                   capture_output=True, timeout=120)


def test_build_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    prices = tmp_path / "prices.csv"
    cointwatch(["gen", "universe", "--clusters", "1", "--cluster-size", "3",
                "--independents", "3", "--days", "250", "--seed", "1", "--out", str(prices)])
    outputs = []
    for threads in (1, None):
        out = tmp_path / f"graph-{threads}.json"
        cointwatch(["build", "--prices", str(prices), "--lags", "51", "--out", str(out)], threads)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_gen_ticks_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # gen's baseline tick is a least-squares solve with a row per edge and
    # per node; at 80 symbols and ~6,000 edges a solve split over threads
    # rounded the prices differently from one thread
    prices, graph = tmp_path / "prices.csv", tmp_path / "graph.json"
    cointwatch(["gen", "universe", "--clusters", "1", "--cluster-size", "5",
                "--independents", "75", "--days", "250", "--seed", "1", "--out", str(prices)])
    cointwatch(["build", "--prices", str(prices), "--alpha", "0.9", "--out", str(graph)])
    outputs = []
    for threads in (1, None):
        out = tmp_path / f"ticks-{threads}.csv"
        cointwatch(["gen", "ticks", "--graph", str(graph), "--prices", str(prices),
                    "--count", "2", "--seed", "1", "--out", str(out)], threads)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_one_blas_thread_restores_the_count():
    get, _ = stats._openblas_threads()
    before = get()
    with stats.one_blas_thread():
        assert get() == 1
    assert get() == before
    with pytest.raises(KeyError), stats.one_blas_thread():
        raise KeyError("a failing block restores it too")
    assert get() == before


def test_pins_from_many_threads_restore_the_count_once_all_end():
    # more threads than cores, switching often: a pin that read another
    # thread's pinned count as the one to restore would leave one thread
    get, _ = stats._openblas_threads()
    before = get()
    unpinned = []
    interval = sys.getswitchinterval()

    def pin_often():
        for _ in range(300):
            with stats.one_blas_thread():
                if get() != 1:
                    unpinned.append(get())

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pin_often) for _ in range(2 * (os.cpu_count() or 1))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert unpinned == []
    assert get() == before
