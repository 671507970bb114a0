"""Run one ``volint`` command with every public layer function in a span.

Usage: python3 bench/traced.py RECORD.json <volint arguments...>

Each public function of the layer modules (and the ``cmd_*`` entry points
of ``cli``) is replaced by a span-recording wrapper in every ``volint.*``
namespace that binds it, because ``cli`` and the other modules import the
names with ``from .x import y``. Run the command at ``--jobs 1``: pool
workers would not report their spans. The spans, call and error counts
and the work counts taken at the same boundaries are written to
RECORD.json when the command returns.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from spans import Recorder  # noqa: E402

LAYERS = ("ingest", "synth", "volatility", "intervals", "fitting",
          "conditional", "dfa", "factors", "cli")


def _count(key, measure):
    def hook(rec, result, args, kwargs):
        rec.counts[key] += measure(result, args, kwargs)
    return hook


def _dfa_boxes(result, args, kwargs):
    n = len(args[0] if args else kwargs["series"])
    return sum(2 * (n // int(w)) for w in result.window_sizes)


def _load_summary(rec, result, args, kwargs):
    s = result.summary
    rec.counts["ingest.rows_skipped"] += s.n_rows_skipped
    rec.counts["ingest.duplicate_rows"] += s.n_duplicate_rows
    rec.counts["ingest.files_rejected"] += s.n_rejected


def _remember_shuffled(rec, result, args, kwargs):
    rec.last_shuffled = result


def _real_intervals(rec, result, args, kwargs):
    """Count intervals and insufficient (stock, q) pairs of the real series.

    The shuffled control is extracted right after shuffle_control returns
    it (one stock at a time at ``--jobs 1``), so those calls are the ones
    whose series is the last shuffled one, and they are not counted.
    """
    series = args[0] if args else kwargs["v"]
    if series is getattr(rec, "last_shuffled", None):
        return
    rec.counts["intervals.n_intervals"] += int(result.taus.size)
    rec.counts["intervals.insufficient"] += int(result.insufficient)


HOOKS = {
    "ingest.load_corpus": _load_summary,
    "ingest.write_corpus": _count(
        "ingest.write_rows",
        lambda r, a, k: sum(s.lifetime_days for s in (a[0] if a else k["corpus"]))),
    "synth.synth_corpus": _count(
        "synth.stock_days", lambda r, a, k: sum(s.lifetime_days for s in r[0])),
    "intervals.shuffle_control": _remember_shuffled,
    "intervals.extract_intervals": _real_intervals,
    "conditional.consecutive_pairs": _count(
        "conditional.n_pairs", lambda r, a, k: int(r[1].size)),
    "dfa.dfa": _count("dfa.boxes", _dfa_boxes),
}


def instrument(rec: Recorder) -> None:
    """Wrap every public layer function in every namespace that binds it."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"volint.{layer}")
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            if layer == "cli" and not attr.startswith("cmd_"):
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = rec.wrap(name, obj, HOOKS.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "volint" and not modname.startswith("volint."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def main(argv) -> int:
    record_path, volint_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import volint.cli
    import_s = time.perf_counter() - t0
    rec = Recorder()
    instrument(rec)
    code = 1
    try:
        code = volint.cli.main(volint_argv)
    finally:
        record = rec.as_dict()
        record.update(import_s=import_s, exit_code=code,
                      in_process_s=time.perf_counter() - T_START)
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
