"""The benchmark's workloads: set-up, measured rounds and output checks.

Every workload is a closed loop with a single caller: each operation starts
when the previous one returns.  A round is a fixed list of operations, and
an untraced run repeats whole rounds until the measuring time is spent, so
every run attempts the same operations in the same proportions.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import re
import shutil
import statistics
import warnings
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from time import perf_counter

import numpy as np

from danet import checkpoint, cli, data, training

import checks
from tracer import Clock, Tracer

# end-to-end metric -> (unit, better).  Every workload measures every one.
METRICS = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "val_loss": ("loss/bin", "lower"),
    "separate_ms.p50": ("ms", "lower"),
    "separate_ms.p90": ("ms", "lower"),
    "evaluate_mix_per_s": ("mixtures/s", "higher"),
    "si_snri_db": ("dB", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class Workload:
    model: str       # danet | adanet
    strategy: str    # kmeans | fixed | anchored: how separate finds attractors
    speakers: str    # "2", or "2+3" for equal shares of 2 and 3


# Every workload trains one model, then separates and scores its test
# split with one strategy.  K-means runs only on the DANet workload and
# subset selection only on the ADANet one, so a change to either shows on
# one workload and leaves the other flat.
WORKLOADS = {
    "danet-2spk-kmeans": Workload("danet", "kmeans", "2"),
    "adanet-3spk-anchored": Workload("adanet", "anchored", "2+3"),
}

SETUP_REPEATS = 3
# A round separates and scores the test split in parts of this many
# mixtures, so that the separate latencies and the evaluate throughput are
# each sampled across the whole second half of the round, not in one
# stretch of it: the speed of a shared machine drifts within seconds.
TEST_PART = 25
ANCHORS = 6
# The test split is this seed's draw with the phases of every source taken
# from the workload seed (see restyle_manifest).  The train and validation
# splits are this seed's draw unchanged, and training uses this seed for
# the initial weights and the chunk order, so every run trains the same
# model.  With the train split following the workload seed too, k-means
# latency moved by 35-50% between seeds.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Scale:
    train: int
    val: int
    test: int
    duration: float = 2.0        # seconds per mixture
    epochs_short: int = 1        # 100-frame chunks
    epochs_long: int = 1         # whole utterances
    # Mean SI-SNRi the workload's model must reach on its test split
    # (README).  Models trained for a second at the tiny scale need not
    # separate.
    si_snri_floor_db: float = 2.0


# The test splits are as long as the run's time allows: on a shared 2-CPU
# virtual machine a 4 s stretch of pure computation ran up to 15% faster
# or slower than the next, so separation latency measured over a few
# seconds moved with it, and a longer stretch averages more of that out.
SIZES = {
    "full": {
        "danet-2spk-kmeans": Scale(train=80, val=100, test=125),
        "adanet-3spk-anchored": Scale(train=40, val=60, test=200),
    },
    "tiny": {
        name: Scale(train=4, val=4, test=4, duration=1.0, si_snri_floor_db=-math.inf)
        for name in WORKLOADS
    },
}


def make_manifest(split: str, n: int, speakers: str, seed: int, duration: float):
    if speakers == "2":
        return data.build_manifest(split, n, (2,), seed=seed, duration=duration)
    # A fixed share of three-speaker mixtures keeps the work per run
    # independent of the seed; the two halves are interleaved.
    two = data.build_manifest(split, n - n // 2, (2,), seed=seed, duration=duration)
    three = data.build_manifest(split, n // 2, (3,), seed=seed + 1_000_003,
                                duration=duration)
    mixtures = [m for pair in zip_longest(two.mixtures, three.mixtures)
                for m in pair if m is not None]
    return data.DatasetManifest(split=split, mixtures=mixtures, seed=seed)


def restyle_manifest(manifest, seed: int):
    """Redraw the phases of every source from the workload seed.

    The rest of each mixture's design stays: fundamentals, partial counts,
    modulation rates and mixing SNRs.  Across fully seed-drawn test splits
    of 100 mixtures the median SI-SNRi of the same models moved by 20-30%
    of itself; with the fundamentals and SNRs held it still moved by about
    12%, most of it from the modulation rates (4-8% with only those
    redrawn, 1-2% with only the phases).  Holding the design keeps the
    difficulty of a split fixed while every waveform still comes from the
    workload seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, *manifest.split.encode()]))
    mixtures = [
        dataclasses.replace(mix, sources=tuple(
            dataclasses.replace(src, seed=int(rng.integers(2**31))) for src in mix.sources))
        for mix in manifest.mixtures
    ]
    return data.DatasetManifest(split=manifest.split, mixtures=mixtures, seed=seed)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile(values, p):
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


_CLIPPED = re.compile(r"^(\d+) samples clipped")


class Run:
    """One benchmark run: operation counts, check results, the clock."""

    def __init__(self, workload: str, seed: int, scale: str, out: Path, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.scale = SIZES[scale][workload]
        self.out = out
        self.clock = Clock()
        self.tracer = Tracer(self.clock, self._trace_checks()) if trace else None
        self.ops = {}              # kind -> [attempted, failed]
        self.clipped = {}          # kind -> samples clipped in wav_write
        self.other_warnings = {}   # category -> count
        self.checks = {}           # name -> [made, failed]
        self.problems = []
        self._warnings = []

    # -- bookkeeping -------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = ""):
        made = self.checks.setdefault(name, [0, 0])
        made[0] += 1
        if not ok:
            made[1] += 1
            if len(self.problems) < 50:
                self.problems.append(f"{name}: {detail}")

    def op(self, kind: str, fn):
        """Time one operation; returns (ok, seconds, result)."""
        counts = self.ops.setdefault(kind, [0, 0])
        counts[0] += 1
        n_warn = len(self._warnings)
        try:
            result, seconds = self.clock.time(fn)
            ok = True
        except Exception as exc:  # a failed operation is counted, not fatal
            result, seconds, ok = exc, None, False
            self.problems.append(f"{kind} raised {type(exc).__name__}: {exc}")
        for w in self._warnings[n_warn:]:
            match = _CLIPPED.match(str(w.message))
            if match:
                self.clipped[kind] = self.clipped.get(kind, 0) + int(match.group(1))
            else:
                cat = w.category.__name__
                self.other_warnings[cat] = self.other_warnings.get(cat, 0) + 1
        if not ok:
            counts[1] += 1
        return ok, seconds, result

    def cli(self, kind: str, argv: list):
        """``danet.cli.main`` in this process; a non-zero exit is a failure."""
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}: {stderr.getvalue().strip()}")
            return stdout.getvalue(), stderr.getvalue()

        return self.op(kind, call)

    @contextlib.contextmanager
    def recording_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._warnings = caught
            yield

    @contextlib.contextmanager
    def traced(self):
        if self.tracer is None:
            yield
        else:
            with self.tracer.active():
                yield

    # -- checks made while the traced round runs -----------------------------

    def _trace_checks(self) -> dict:
        def kmeans(args, kwargs, result):
            v = np.asarray(args[0], dtype=np.float64)
            self.check("trace.kmeans_label_is_nearest_centre",
                       checks.kmeans_labels_nearest(v, result.centers, result.labels))

        def select(args, kwargs, result):
            anchors, v, w, c = args[:4]
            self.check("trace.anchored_winner_scores_lowest",
                       checks.anchored_winner_is_min(anchors, v, w, c, result.subset_index),
                       f"subset {result.subset} is not the least similar")

        def separate(args, kwargs, result):
            mixture = args[1]
            err = checks.sum_error([e.samples for e in result], mixture.samples)
            self.check("trace.separate_sums_to_mixture", err <= checks.SUM_TOLERANCE,
                       f"deviation {err:.3g}")

        return {"inference.kmeans": kmeans, "adanet.select_attractor_set": select,
                "inference.separate": separate}


# -- set-up -----------------------------------------------------------------


def setup_once(run: Run, root: Path):
    """Write the corpus; only the test split follows the workload seed.

    The test split is written in parts of TEST_PART mixtures, each with its
    own index, so that a round can separate and score it part by part.
    """
    c = run.scale
    with run.traced():
        for split, n in (("train", c.train), ("validation", c.val)):
            data.generate_dataset(
                make_manifest(split, n, run.spec.speakers, REFERENCE_SEED, c.duration),
                root / split)
        test = restyle_manifest(
            make_manifest("test", c.test, run.spec.speakers, REFERENCE_SEED, c.duration),
            run.seed)
        for k in range(0, c.test, TEST_PART):
            part = data.DatasetManifest(split=f"test{k // TEST_PART:02d}",
                                        mixtures=test.mixtures[k:k + TEST_PART],
                                        seed=test.seed)
            data.generate_dataset(part, root / "test" / part.split)


def setup(run: Run, repeats: int) -> tuple:
    """Set up ``repeats`` times; returns (directory to use, seconds each)."""
    times, digests = [], []
    for rep in range(repeats):
        root = run.out / f"setup{rep}"
        _, seconds = run.clock.time(lambda: setup_once(run, root))
        times.append(seconds)
        digests.append(tree_digest(root))
        if rep:
            shutil.rmtree(root)
    run.check("setup.repeats_byte_identical", len(set(digests)) == 1,
              "set-up wrote different files on a repeat")
    return run.out / "setup0", times


def rows(root: Path, split: str) -> list:
    return data.load_index(root / split / "index.jsonl")


# -- training ------------------------------------------------------------------


def train_settings(run: Run) -> "training.TrainSettings":
    c, model = run.scale, run.spec.model
    slots = 3 if run.spec.speakers == "2+3" else None
    return training.TrainSettings(
        model=model, anchors=ANCHORS, slots=slots if model == "adanet" else None,
        epochs_short=c.epochs_short, epochs_long=c.epochs_long, seed=REFERENCE_SEED)


def train_step(run: Run, root: Path) -> dict:
    """One ``train()`` into ``root/model.ckpt``; checks its log and file."""
    settings = train_settings(run)
    train_rows, val_rows = rows(root, "train"), rows(root, "validation")
    ckpt_path, log_path = root / "model.ckpt", root / "model.log.csv"
    with run.traced():
        ok, seconds, ckpt = run.op("train", lambda: training.train(
            train_rows, val_rows, settings, ckpt_path, log_path))
    if not ok:
        return {}
    with run.clock.excluding():
        problems = checks.training_log_problems(checks.read_csv(log_path),
                                                ckpt.best_val_loss)
        run.check("train.loss_log", not problems, "; ".join(problems))
        blob = ckpt_path.read_bytes()
        again = root / "resaved.ckpt"
        checkpoint.checkpoint_save(checkpoint.checkpoint_load(ckpt_path), again)
        run.check("train.save_load_save_identical", again.read_bytes() == blob)
        again.unlink()
    return {"train_s": [seconds], "val_loss": ckpt.best_val_loss,
            "log": log_path.read_bytes()}


# -- separation ------------------------------------------------------------------


class EvaluateCapture:
    """Checks each estimate ``danet evaluate`` scores, as it is scored.

    Stands in for ``danet.cli.separate`` during one evaluate call.  Per
    mixture it checks that the estimates sum to the mixture, that the WAVs
    ``danet separate`` wrote for this mixture are those estimates in 16-bit
    PCM, and it recomputes SI-SNRi over all pairings for the CSV check.
    All of it runs on the excluded clock.
    """

    def __init__(self, run: Run, test_rows: list, wav_dir: Path):
        self.run = run
        self.rows = test_rows
        self.wav_dir = wav_dir
        self.si_snri = {}
        self.clipped = 0
        self.calls = 0

    @contextlib.contextmanager
    def installed(self):
        inner = cli.separate

        def capture(net, mixture, c, strategy, q=0.9):
            estimates = inner(net, mixture, c, strategy, q=q)
            with self.run.clock.excluding():
                self._check(mixture, estimates)
            return estimates

        cli.separate = capture
        try:
            yield self
        finally:
            cli.separate = inner

    def _check(self, mixture, estimates):
        run = self.run
        k = self.calls
        self.calls += 1
        if k >= len(self.rows):
            run.check("evaluate.calls_match_rows", False, "more calls than mixtures")
            return
        row = self.rows[k]
        mix = checks.read_samples(row["mixture_path"])
        run.check("evaluate.input_is_indexed_mixture",
                  np.array_equal(mixture.samples, mix), str(row["mixture_path"]))
        ests = [e.samples for e in estimates]
        err = checks.sum_error(ests, mix)
        run.check("separate.sums_to_mixture", err <= checks.SUM_TOLERANCE,
                  f"{row['mixture_path'].name}: deviation {err:.3g}")
        n = len(ests[0])
        refs = [checks.read_samples(p)[:n] for p in row["source_paths"]]
        self.si_snri[row["mixture_path"].name] = checks.si_snri(ests, refs, mix[:n])
        stem = row["mixture_path"].stem
        for i, est in enumerate(ests):
            wav = checks.read_pcm(self.wav_dir / f"{stem}_src{i}.wav")
            run.check("separate.wav_is_estimate_in_pcm",
                      np.array_equal(wav, checks.quantize(est)),
                      f"{stem}_src{i}.wav")
            self.clipped += int(np.count_nonzero(np.abs(est) > 1.0))


def separate_part(run: Run, ckpt: str, part: Path) -> dict:
    """Each mixture of one part through ``danet separate``, then ``danet
    evaluate`` over the part; checks the CSV against the estimates."""
    strategy = run.spec.strategy
    test_rows = data.load_index(part / "index.jsonl")
    kind = f"separate.{strategy}"
    latencies = []
    clipped_before = run.clipped.get(kind, 0)
    with run.traced():
        for row in test_rows:
            argv = ["separate", "--checkpoint", ckpt,
                    "--input", str(row["mixture_path"]),
                    "--speakers", str(len(row["source_paths"])),
                    "--strategy", strategy, "--out", str(run.out / strategy)]
            ok, seconds, _ = run.cli(kind, argv)
            if ok:
                latencies.append(seconds * 1000.0)
        csv_path = run.out / f"{strategy}.csv"
        argv = ["evaluate", "--checkpoint", ckpt, "--data", str(part),
                "--strategy", strategy, "--out", str(csv_path)]
        capture = EvaluateCapture(run, test_rows, run.out / strategy)
        with capture.installed():
            ok, eval_seconds, result = run.cli(f"evaluate.{strategy}", argv)
    if not ok:
        return {"latency_ms": latencies, "si_snri_rows": []}
    _, stderr = result
    table = checks.read_csv(csv_path)
    run.check("evaluate.one_row_per_mixture",
              len(table) == len(test_rows) == capture.calls,
              f"{part.name}: {len(table)} rows, {len(test_rows)} mixtures, "
              f"{capture.calls} scored")
    run.check("evaluate.nothing_skipped", "skipped" not in stderr, stderr.strip())
    for line in table:
        mine = capture.si_snri.get(line["mixture"], math.nan)
        run.check("evaluate.si_snri_matches_definition",
                  abs(float(line["si_snri_db"]) - mine) <= 0.5e-4 + 1e-9,
                  f"{line['mixture']}: CSV {line['si_snri_db']}, recomputed {mine:.6f}")
    reported = run.clipped.get(kind, 0) - clipped_before
    run.check("separate.clip_count_agrees", capture.clipped == reported,
              f"{part.name}: {capture.clipped} estimate samples outside [-1, 1], "
              f"wav_write reported {reported} clipped")
    return {"latency_ms": latencies, "eval_seconds": eval_seconds,
            "si_snri_rows": [float(r["si_snri_db"]) for r in table]}


def separate_step(run: Run, root: Path) -> dict:
    """Separate and score the test split, one part after another."""
    ckpt = str(root / "model.ckpt")
    latencies, eval_seconds, si_rows = [], 0.0, []
    for part in sorted((root / "test").iterdir()):
        figures = separate_part(run, ckpt, part)
        latencies += figures["latency_ms"]
        eval_seconds += figures.get("eval_seconds", 0.0)
        si_rows += figures["si_snri_rows"]
    if not si_rows:
        return {"latency_ms": latencies}
    # The mean, not the median: per mixture, k-means either finds the two
    # sources or does not, and across test splits the median SI-SNRi of one
    # model moved by 28% of itself where the mean moved by 2%.
    mean = statistics.fmean(si_rows)
    run.check("evaluate.si_snri_above_floor",
              math.isfinite(mean) and mean >= run.scale.si_snri_floor_db,
              f"mean {mean:.3f} dB")
    return {"latency_ms": latencies, "eval_seconds": eval_seconds,
            "eval_mixtures": len(si_rows), "si_snri": mean}


# -- running a workload --------------------------------------------------------


def one_round(run: Run, root: Path) -> dict:
    """Train, then separate and score the test split with the new model."""
    figures = train_step(run, root)
    if figures:
        figures.update(separate_step(run, root))
    return figures


def merge(total: dict, part: dict, run: Run) -> dict:
    """Fold one round's figures into the run's; quality must repeat exactly."""
    if not total:
        return part
    for key in ("val_loss", "si_snri", "log"):
        run.check(f"round.{key}_repeats", part.get(key) == total.get(key),
                  f"{part.get(key)!r} != {total.get(key)!r}")
    for key in ("train_s", "latency_ms"):
        total[key] = total.get(key, []) + part.get(key, [])
    for key in ("eval_seconds", "eval_mixtures"):
        total[key] = total.get(key, 0) + part.get(key, 0)
    return total


def end_to_end(figures: dict) -> dict:
    """The end-to-end metrics of the rounds; those not measured are left out."""
    metrics = {}
    if figures.get("train_s"):
        metrics["train_s"] = statistics.median(figures["train_s"])
        metrics["val_loss"] = figures["val_loss"]
    if figures.get("latency_ms"):
        metrics["separate_ms.p50"] = percentile(figures["latency_ms"], 50)
        metrics["separate_ms.p90"] = percentile(figures["latency_ms"], 90)
    if figures.get("eval_seconds"):
        metrics["evaluate_mix_per_s"] = figures["eval_mixtures"] / figures["eval_seconds"]
        metrics["si_snri_db"] = figures["si_snri"]
    return metrics


def quality(figures: dict) -> dict:
    return {"val_loss": figures.get("val_loss"), "si_snri_db": figures.get("si_snri")}


def round_parts(figures: dict) -> dict:
    """Seconds a round spent training, in separate commands and in evaluate."""
    return {"train": sum(figures.get("train_s", [])),
            "separate": sum(figures.get("latency_ms", [])) / 1000.0,
            "evaluate": figures.get("eval_seconds", 0.0)}


def round_seconds(figures: dict) -> float:
    return sum(round_parts(figures).values())


def run_untraced(run: Run, seconds: float) -> tuple:
    root, setup_times = setup(run, SETUP_REPEATS)
    figures = {}
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        figures = merge(figures, one_round(run, root), run)
        rounds += 1
    metrics = {"setup_s": statistics.median(setup_times), **end_to_end(figures)}
    record = {"setup_s_each": setup_times, "rounds": rounds,
              "train_s_each": figures.get("train_s", []),
              "separate_samples": len(figures.get("latency_ms", []))}
    return metrics, record


def run_traced(run: Run) -> tuple:
    """One set-up, then the round untraced and traced.

    The overhead compares the traced round with the untraced one; the
    untraced round also brings the traced one's quality to compare with.
    """
    tracer = run.tracer
    root, _ = setup(run, 1)          # corpus generation is traced
    run.tracer = None
    plain = one_round(run, root)
    run.tracer = tracer
    traced = one_round(run, root)
    run.check("trace.quality_equals_untraced", quality(plain) == quality(traced),
              f"untraced {quality(plain)}, traced {quality(traced)}")
    run.check("trace.loss_log_equals_untraced", plain.get("log") == traced.get("log"))
    plain_s, traced_s = round_seconds(plain), round_seconds(traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s - plain_s) / plain_s,
                                     "unit": "%"}
    record = {"untraced_round_s": round_parts(plain), "traced_round_s": round_parts(traced),
              "quality": quality(traced), "spans_missing": tracer.missing}
    return metrics, record
