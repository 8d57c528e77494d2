"""End-to-end and per-layer benchmark of the popdyn CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the CLI in a closed loop: each operation is a fresh
`python -m popdyn.cli` process, started only after the previous one ended,
with OpenBLAS/OpenMP threads capped at the number of usable cores. The run
pins itself, and so every process it starts, to one core: the CLI's
operations are single-threaded, and the pin lets the timing kernel below
measure the core they run on. A run repeats whole passes over the workload's
operations until at least `--seconds` seconds have been measured; every run
makes at least one pass.

Times are normalised to a reference host speed, because the shared host's
speed drifts by a quarter or more within a minute. While a run lasts, a
background thread times a fixed pure-Python kernel that uses no popdyn code
every SAMPLE_EVERY_S seconds, on the same core as the operation (it takes
about 4% of it). Every child runs at nice CHILD_NICE, so the kernel is not
pre-empted by the operation, and its wall time counts only its own work and
whatever the host takes away. Each process's wall time is multiplied by
KERNEL_S over the mean kernel time while it ran, which gives seconds at the
speed where the kernel takes KERNEL_S. Raw times are kept in the results line as
`raw_wall_s` and `raw_setup_s`, and each op's factor as `scale`.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
runs one untraced pass and then one traced pass, in which each operation
calls `popdyn.cli.main(argv)` under `perfbench/tracer.py`, and prints the
per-layer metrics; its spans are written to `.perfbench/`.

Every operation is checked: it fails on a non-zero exit code, on a report
whose `verification.passed` is false, or on an output whose SHA-256 differs
from the digest pinned in `perfbench/spec.json`. Only `simulate` depends on
the seed; its CSV is pinned for a range of seeds, and at other seeds it is only
checked for being a valid path of single-agent moves. The pins are checked-in
data: every run records each output's digest in its results file, so new pins
are copied from there.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
full results (per-pass quartiles, per-operation digests, the environment).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = SRC / "popdyn" / "fixtures"
SPEC_PATH = BENCH_DIR / "spec.json"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 0
SAMPLE_EVERY_S = 0.05
CHILD_NICE = 10
# Mean time of one speed_kernel() call on the 2-vCPU host the benchmark was
# defined on, sampled while the CLI ran.
KERNEL_S = 0.0019
SETUP_PROBES = 3
IMPORT_PROBES = 3
SIM_STEPS = 200_000
# ex1/ex2/ex3 have 1.55M/4.07M/8.39M refined states, above the default guard.
MAX_STATES = ("--max-states", "20000000")
SCALED = "ex7_1x3"

SETUP_CODE = """\
import json, sys
import popdyn.cli
from popdyn.model import validate_population
for path in sys.argv[1:]:
    with open(path) as fh:
        validate_population(json.load(fh))
"""


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `kind` names the command metric it adds to."""

    id: str
    kind: str
    command: str
    config: str
    flags: tuple[str, ...] = ()
    output: str | None = None  # "csv" or "adjacency": a file besides the report
    report: bool = True
    probe: bool = False  # known defect: reported in ops_failed, kept out of `failed`

    def files(self, work: Path) -> dict[str, Path]:
        """The op's output files by label; each label is also its CLI flag."""
        out = {"json": work / f"{self.id}.report.json"} if self.report else {}
        if self.output:
            out[self.output] = work / f"{self.id}.{self.output}.txt"
        return out

    def argv(self, work: Path, seed: int) -> list[str]:
        args = [self.command, "--config", str(config_path(self.config, work))]
        args += [f.format(seed=seed) for f in self.flags]
        for flag, path in self.files(work).items():
            args += [f"--{flag}", str(path)]
        return args

    def pin_key(self, seed: int) -> str:
        return f"{self.id}@seed={seed}" if self.kind == "simulate" else self.id


def _stochastic_verify(name: str) -> Op:
    return Op(f"{name}.stochastic-verify", "stochastic", "stochastic", name,
              ("--epsilon", "1/10000", "--verify"))


WORKLOADS: dict[str, list[Op]] = {
    "oracle-large": [
        Op("ex3.oracle", "oracle", "oracle", "ex3", MAX_STATES),
        Op("ex2.equilibria-oracle", "equilibria", "equilibria", "ex2", ("--oracle", *MAX_STATES)),
    ],
    "multitype-verify": [
        Op("ex1.equilibria-verify", "equilibria", "equilibria", "ex1", ("--verify", *MAX_STATES)),
        Op("ex1.invariants-verify", "invariants", "invariants", "ex1", ("--verify", *MAX_STATES)),
        Op("ex1.oracle-verify", "oracle", "oracle", "ex1", ("--verify", *MAX_STATES)),
    ],
    "binary-stochastic": [
        *(_stochastic_verify(f"ex7_{i}") for i in range(1, 5)),
        Op(f"{SCALED}.stochastic", "stochastic", "stochastic", SCALED),
        # Exits 2 at the commit that defined this benchmark: the float
        # fallback for chains above 500 states raises on numpy 2.
        Op(f"{SCALED}.stochastic-eps", "stochastic", "stochastic", SCALED,
           ("--epsilon", "1/1000"), probe=True),
    ],
    "trajectory-export": [
        Op("ex2.simulate", "simulate", "simulate", "ex2",
           ("--steps", str(SIM_STEPS), "--seed", "{seed}"), output="csv", report=False),
        Op("ex1.oracle-adjacency", "export", "oracle", "ex1", MAX_STATES, output="adjacency"),
    ],
}

COMMAND_KINDS = ("oracle", "equilibria", "invariants", "stochastic", "simulate", "export")


def config_path(name: str, work: Path) -> Path:
    return work / f"{name}.json" if name == SCALED else FIXTURES / f"{name}.json"


def write_scaled_fixture(work: Path) -> None:
    """ex7_1 with every cell count tripled: (6, 3, 3, 15), 1,792 chain states."""
    with open(FIXTURES / "ex7_1.json") as fh:
        raw = json.load(fh)
    raw["name"] = SCALED
    raw["description"] = "ex7_1 with every cell count tripled."
    for group in raw["anticoordinating"] + raw["coordinating"]:
        group["bestResponders"] *= 3
        group["imitators"] *= 3
    with open(config_path(SCALED, work), "w") as fh:
        json.dump(raw, fh, indent=2)


# -- running operations ----------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(nproc())
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("POPDYN_MAX_STATES", None)
    return env


def speed_kernel() -> str:
    """Fixed interpreter-bound work whose time follows the host's current speed."""
    counts: dict[int, int] = {}
    for n in range(10_000):
        counts[n % 61] = counts.get(n % 61, 0) + n
    return ",".join(map(str, range(800))) + str(counts[0])


class HostSpeed:
    """Times speed_kernel() every SAMPLE_EVERY_S seconds in a background thread.

    Use as a context manager; the thread stops and is joined on exit. The CLI
    runs in child processes pinned to the same core at a lower priority, so
    the kernel measures that core while the child runs, without waiting for it.
    """

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed", daemon=True)

    def __enter__(self) -> HostSpeed:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            speed_kernel()
            end = time.perf_counter()
            with self._lock:
                self._samples.append((start, end))
            self._stop.wait(SAMPLE_EVERY_S)

    def kernel_s(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean kernel time of the samples taken within [start, end]."""
        with self._lock:
            times = [b - a for a, b in self._samples if a >= start and b <= end]
        if not times:
            raise RuntimeError("no host-speed sample within the interval")
        return statistics.mean(times)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured within [start, end] into reference-speed time."""
        return KERNEL_S / self.kernel_s(start, end)


def spawn(argv: list[str], env: dict, work: Path, tag: str) -> tuple[int, float, float, float, str]:
    """Run one process to completion; return (exit code, start, end, max RSS MB, stderr)."""
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(["nice", "-n", str(CHILD_NICE), *argv],
                                env=env, cwd=ROOT, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0, stderr


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_trajectory(path: Path, config: Path, steps: int) -> str | None:
    """Check a trajectory CSV is a path of single-agent moves; return a problem or None."""
    with open(config) as fh:
        raw = json.load(fh)
    population = sum(g["bestResponders"] + g["imitators"]
                     for g in raw["anticoordinating"] + raw["coordinating"])
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        cols = [i for i, col in enumerate(header) if re.fullmatch(r"xI|xa_\d+|xc_\d+", col)]
        if header[:5] != ["t", "active_role", "active_kind", "active_type", "xI"] or header[-1] != "nC":
            return f"unexpected header {header}"
        prev, t = None, -1
        for t, row in enumerate(rows):
            state = [int(row[i]) for i in cols]
            n_c = int(row[-1])
            if int(row[0]) != t or min(state) < 0 or sum(state) != n_c or n_c > population:
                return f"row {t} is not a valid state: {row}"
            if prev is not None:
                moved = [header[i] for i, a, b in zip(cols, prev, state) if a != b]
                delta = sum(abs(a - b) for a, b in zip(prev, state))
                role, kind, index = row[1:4]
                expected = "xI" if role == "imitator" else f"x{kind[0]}_{index}"
                if delta > 1 or (moved and moved != [expected]):
                    return f"row {t} is not a single move of the active agent: {row}"
            prev = state
    if t != steps:
        return f"{t + 1} rows for {steps} steps"
    return None


@dataclass
class OpResult:
    op: Op
    code: int
    raw_s: float
    scale: float  # HostSpeed.scale over the op's run
    rss_mb: float
    digests: dict
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def wall_s(self) -> float:
        return self.raw_s * self.scale

    def to_json(self) -> dict:
        return {"id": self.op.id, "exit": self.code, "wall_s": self.wall_s,
                "raw_wall_s": self.raw_s, "scale": self.scale,
                "rss_mb": self.rss_mb, "ok": self.ok, "probe": self.op.probe,
                "digests": self.digests, "problems": self.problems}


def run_op(op: Op, seed: int, work: Path, env: dict, pins: dict, speed: HostSpeed,
           spans_path: Path | None = None) -> OpResult:
    files = op.files(work)
    for path in files.values():
        path.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "popdyn.cli"]
    if spans_path is not None:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), "--"]
    argv += op.argv(work, seed)
    code, start, end, rss, stderr = spawn(argv, env, work, op.id)
    problems, digests = [], {}
    if code != 0:
        problems.append(f"exit {code}: {stderr.strip()[-400:]}")
    for label, path in files.items():
        if path.is_file():
            digests[label] = sha256(path)
    if code == 0 and "json" in files:
        with open(files["json"]) as fh:
            verification = json.load(fh).get("verification")
        if verification is not None and not verification.get("passed"):
            problems.append(f"verification failed: {verification.get('problems')}")
    pinned = pins.get(op.pin_key(seed))
    if code == 0 and pinned is not None and pinned != digests:
        problems.append(f"digests {digests} differ from pinned {pinned}")
    if code == 0 and pinned is None and op.output == "csv":
        problem = check_trajectory(files["csv"], config_path(op.config, work), SIM_STEPS)
        if problem:
            problems.append(problem)
    for path in files.values():
        path.unlink(missing_ok=True)
    return OpResult(op, code, end - start, speed.scale(start, end), rss, digests, problems)


def run_pass(ops: list[Op], seed: int, work: Path, env: dict, pins: dict, speed: HostSpeed,
             spans_dir: Path | None = None) -> list[OpResult]:
    results = []
    for n, op in enumerate(ops):
        spans_path = None if spans_dir is None else spans_dir / f"{n}.{op.id}.json"
        results.append(run_op(op, seed, work, env, pins, speed, spans_path))
    return results


def pass_metrics(results: list[OpResult]) -> dict[str, float]:
    """End-to-end metrics of one pass. Failed ops are kept out of every timing.

    Times are at the reference speed; `raw_wall_s` is as measured.
    """
    ok = [r for r in results if r.ok and not r.op.probe]
    metrics = {
        "wall_s": sum(r.wall_s for r in ok),
        "raw_wall_s": sum(r.raw_s for r in ok),
        "peak_rss_mb": max((r.rss_mb for r in ok), default=0.0),
    }
    for kind in COMMAND_KINDS:
        timed = [r.wall_s for r in ok if r.op.kind == kind]
        if timed:
            metrics[f"{kind}_s"] = sum(timed)
    sims = [r.wall_s for r in ok if r.op.kind == "simulate"]
    if sims:
        metrics["steps_per_s"] = SIM_STEPS * len(sims) / sum(sims)
    probes = [r.wall_s for r in results if r.op.probe and r.ok]
    if probes:
        metrics["stationary_scaled_s"] = sum(probes)
    metrics["ops_failed"] = sum(not r.ok for r in results)
    metrics["ops_attempted"] = len(results)
    return metrics


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# -- set-up and import probes --------------------------------------------------------


def setup_probe(configs: list[Path], env: dict, work: Path,
                speed: HostSpeed) -> list[tuple[float, float]]:
    """Fresh-process import of popdyn.cli plus config validation; one warm-up.

    Returns each timed probe's (raw seconds, HostSpeed scale).
    """
    times = []
    for n in range(SETUP_PROBES + 1):
        code, start, end, _, stderr = spawn(
            [sys.executable, "-c", SETUP_CODE, *map(str, configs)], env, work, "setup")
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {stderr.strip()[-400:]}")
        if n:
            times.append((end - start, speed.scale(start, end)))
    return times


def import_breakdown(env: dict, work: Path) -> dict[str, float]:
    """Seconds spent executing each package's modules, from `-X importtime`."""
    samples: dict[str, list[float]] = {p: [] for p in ("popdyn", "numpy", "scipy", "networkx")}
    for _ in range(IMPORT_PROBES):
        code, _, _, _, stderr = spawn([sys.executable, "-X", "importtime", "-c", "import popdyn.cli"],
                                      env, work, "importtime")
        if code != 0:
            raise RuntimeError(f"import probe failed: {stderr.strip()[-400:]}")
        self_us = dict.fromkeys(samples, 0)
        for line in stderr.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if match:
                package = match.group(2).split(".")[0]
                if package in self_us:
                    self_us[package] += int(match.group(1))
        for package, us in self_us.items():
            samples[package].append(us / 1e6)
    return {f"import.{p}_s": statistics.median(v) for p, v in samples.items()}


# -- traced run ------------------------------------------------------------------


def merge_traces(spans_dir: Path, ops: list[Op]) -> tuple[dict, dict, list]:
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    per_op = []
    for n, op in enumerate(ops):
        path = spans_dir / f"{n}.{op.id}.json"
        if not path.is_file():
            continue
        with open(path) as fh:
            trace = json.load(fh)
        per_op.append({"id": op.id, **trace})
        for name, v in trace["layers"].items():
            agg = layers.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "peak_mb": 0.0})
            agg["self_s"] += v["self_s"]
            agg["total_s"] += v["total_s"]
            agg["calls"] += v["calls"]
            agg["peak_mb"] = max(agg["peak_mb"], v["peak_mb"])
        for name, v in trace["counts"].items():
            counts[name] = counts.get(name, 0) + v
    masks = counts.get("invariants.masks", 0)
    counts["invariants.nonempty_mask_ratio"] = counts.get("invariants.nonempty_masks", 0) / masks if masks else 0.0
    return layers, counts, per_op


def layer_metric(name: str, layers: dict, values: dict) -> float:
    base, _, field = name.rpartition(".")
    if field in ("self_s", "total_s", "calls", "peak_mb"):
        return layers.get(base, {}).get(field, 0)
    return values.get(name, 0)


# -- environment and exact counts ---------------------------------------------------------------


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    threads = nproc()
    return {
        "nproc": os.cpu_count(),
        "cores_used": threads,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": sys.version.split()[0],
        **versions,
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
    }


EXACT_COUNTS = ("oracle.states", "oracle.edges", "oracle.csr_bytes", "oracle.sinks",
                "stochastic.classes", "invariants.all_benchmark_indices.n")


def exact_counts(per_op: list[dict], ops: list[Op]) -> dict:
    """Counts that repeat exactly from run to run, summed over the non-probe ops."""
    probes = {op.id for op in ops if op.probe}
    return {k: sum(t["counts"].get(k, 0) for t in per_op if t["id"] not in probes)
            for k in EXACT_COUNTS}


# -- main --------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "popdyn" / "cli.py").is_file():
        print(f"perfbench: no popdyn sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        with HostSpeed() as speed:
            details, result = measure(args, bench, spec, work, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if args.trace == 1:
        with open(OUT_DIR / f"spans.{tag}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": details.pop("spans")}, fh)
    with open(OUT_DIR / f"results.{tag}.json", "w") as fh:
        json.dump(details, fh, indent=2)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def measure(args: argparse.Namespace, bench: dict, spec: dict, work: Path,
            speed: HostSpeed) -> tuple[dict, dict]:
    """Run the workload in `work`; return the full results and the result line."""
    pins = spec["digests"]
    ops = WORKLOADS[args.workload]
    env = child_env()
    write_scaled_fixture(work)
    configs = sorted({config_path(op.config, work) for op in ops})
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "environment": environment()}
    if args.trace == 0:
        setup = setup_probe(configs, env, work, speed)
        passes: list[list[OpResult]] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ops, args.seed, work, env, pins, speed))
        per_pass = [pass_metrics(p) for p in passes]
        summary = {k: quartiles([m[k] for m in per_pass if k in m])
                   for k in dict.fromkeys(k for m in per_pass for k in m)}
        summary["setup_s"] = quartiles([raw * scale for raw, scale in setup])
        summary["raw_setup_s"] = quartiles([raw for raw, _ in setup])
        details["metrics"] = summary
        all_results = [r for p in passes for r in p]
        metrics = {m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        imports = import_breakdown(env, work)
        untraced = run_pass(ops, args.seed, work, env, pins, speed)
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced = run_pass(ops, args.seed, work, env, pins, speed, spans_dir)
        layers, counts, per_op = merge_traces(spans_dir, ops)
        plain, timed = pass_metrics(untraced), pass_metrics(traced)
        values = {**counts, **imports,
                  **{f"cmd.{k}": v for k, v in plain.items()},
                  "host.kernel_s": speed.kernel_s(),
                  "trace.wall_s": timed["raw_wall_s"],
                  "trace.overhead_s": timed["raw_wall_s"] - plain["raw_wall_s"]}
        all_results = untraced + traced
        exact = exact_counts(per_op, ops)
        details["exact_counts"] = exact
        pinned = spec["exact_counts"][args.workload]
        details["exact_counts_differ"] = {k: {"pinned": pinned.get(k), "run": v}
                                          for k, v in exact.items() if pinned.get(k) != v}
        details["untraced"], details["traced"] = plain, timed
        details["spans"] = per_op
        metrics = {m["name"]: {"value": layer_metric(m["name"], layers, values), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    details["host_kernel_s"] = speed.kernel_s()
    details["ops"] = [r.to_json() for r in all_results]
    counted = [r for r in all_results if not r.op.probe]
    failed = sum(not r.ok for r in counted)
    return details, {"correct": failed == 0, "attempted": len(counted),
                     "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
