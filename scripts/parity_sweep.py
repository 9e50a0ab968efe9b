#!/usr/bin/env python3
"""Compares two `arrayeq` binaries on the refactor-parity sweeps.

    python3 scripts/parity_sweep.py PARENT_BIN CHANGE_BIN

Both binaries verify the same pairs at `--jobs 1` with `--json`:

  * sweep 1: the 54 corpus pairs (Fig. 1 (a,b), (a,c), (a,d), (c,b), the
    7 kernels against themselves and the 43 fault-corpus mutants against
    their originals), each with and without `--witnesses`;
  * sweep 2: `--max-work` 8, 20, 40, 64, 65, 66, 70, 100, 130 and 200 on
    the 11 Fig. 1 and kernel pairs;
  * sweep 3: `--baseline` on the same 11 pairs, with four baselines each:
    one the parent emitted for the pair itself (its proven outputs are
    clean), one from the original against itself (the edited outputs are
    re-checked), one emitted under `--method basic` (rejected as
    `options_mismatch`) and one malformed file (rejected as `malformed`).
    The parent binary emits them once and both binaries read the same files.

A run matches when the exit code, stderr, the list of top-level JSON keys,
the stable report fields, every `stats` counter except the times (`*_us`)
and the whole `baseline` member are equal; a run whose output is not JSON
must print the same bytes.  The script prints how many runs were
identical per sweep, then each field that differs: its run count per
sweep, for numbers how many runs went higher and lower, and the first few
examples.  It exits 0 only when every run is identical, so running it with
the same binary on both sides checks that one job is deterministic across
processes.  Uses only the Python standard library.
"""

import json
import os
import subprocess
import sys
import tempfile

FIG1_PAIRS = [("fig1a", "fig1b"), ("fig1a", "fig1c"), ("fig1a", "fig1d"), ("fig1c", "fig1b")]
KERNELS = ["fir5", "conv2d", "downsample", "lifting", "sad_tree", "matvec", "recurrence"]
MUTANTS = 43
MAX_WORK = [8, 20, 40, 64, 65, 66, 70, 100, 130, 200]
STABLE = ("verdict", "outputs_checked", "diagnostics", "witnesses", "blame",
          "output_fingerprints", "budget_exhausted")
EXAMPLES = 3
SWEEPS = (1, 2, 3)
MALFORMED = '{"format":"arrayeq-baseline-v1","options_fp":'


def pairs(binary, workdir):
    """The 54 corpus pairs as (label, original path, transformed path)."""
    def source(name):
        path = os.path.join(workdir, name.replace(":", "_") + ".c")
        if not os.path.exists(path):
            with open(path, "w") as f:
                subprocess.run([binary, "corpus", name], stdout=f, check=True)
        return path

    out = [(f"{a}/{b}", source(a), source(b)) for a, b in FIG1_PAIRS]
    out += [(k, source(k), source(k)) for k in KERNELS]
    out += [(f"mutant:{i}", source(f"mutant-original:{i}"), source(f"mutant:{i}"))
            for i in range(MUTANTS)]
    return out


def baselines(binary, workdir, label, a, b):
    """The three sweep-3 baselines `binary` emits for one pair, as
    (kind, path)."""
    out = []
    for kind, pair, flags in [("same", (a, b), []), ("self", (a, a), []),
                              ("basic", (a, b), ["--method", "basic"])]:
        path = os.path.join(workdir, f"{label.replace('/', '_')}.{kind}.json")
        subprocess.run([binary, "verify", *pair, "--jobs", "1", "--emit-baseline", path, *flags],
                       capture_output=True, timeout=120)
        out.append((kind, path))
    return out


def run(binary, a, b, flags):
    done = subprocess.run([binary, "verify", a, b, "--jobs", "1", "--json", *flags],
                          capture_output=True, text=True, timeout=120)
    fields = {"exit": done.returncode, "stderr": done.stderr}
    try:
        doc = json.loads(done.stdout)
        report = doc["report"]
    except (ValueError, KeyError, TypeError):
        fields["output"] = done.stdout
        return fields
    fields["keys"] = list(doc)
    fields["baseline"] = doc.get("baseline")
    for key in STABLE:
        fields[key] = report.get(key)
    for key, value in report.get("stats", {}).items():
        if not key.endswith("_us"):
            fields[f"stats.{key}"] = value
    return fields


def short(value, width=100):
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= width else text[: width - 3] + "..."


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: parity_sweep.py PARENT_BIN CHANGE_BIN")
    parent, change = (os.path.abspath(p) for p in sys.argv[1:])
    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        corpus_pairs = pairs(parent, workdir)
        runs = [(1, f"{label} {' '.join(flags) or '(plain)'}", a, b, flags)
                for label, a, b in corpus_pairs
                for flags in ([], ["--witnesses"])]
        budgeted = corpus_pairs[: len(FIG1_PAIRS) + len(KERNELS)]
        runs += [(2, f"{label} --max-work {w}", a, b, ["--max-work", str(w)])
                 for label, a, b in budgeted
                 for w in MAX_WORK]
        malformed = os.path.join(workdir, "malformed.json")
        with open(malformed, "w") as f:
            f.write(MALFORMED)
        runs += [(3, f"{label} --baseline {kind}", a, b, ["--baseline", path])
                 for label, a, b in budgeted
                 for kind, path in [*baselines(parent, workdir, label, a, b),
                                    ("malformed", malformed)]]
        diffs = {}
        identical = dict.fromkeys(SWEEPS, 0)
        for sweep, label, a, b, flags in runs:
            before, after = run(parent, a, b, flags), run(change, a, b, flags)
            differing = [k for k in dict.fromkeys([*before, *after])
                         if before.get(k) != after.get(k)]
            identical[sweep] += not differing
            for key in differing:
                diffs.setdefault(key, []).append((sweep, label, before.get(key), after.get(key)))
    total = {s: sum(1 for r in runs if r[0] == s) for s in SWEEPS}
    same = sum(identical.values())
    per_sweep = ", ".join(f"sweep {s}: {identical[s]}/{total[s]}" for s in SWEEPS)
    print(f"identical: {same}/{len(runs)} runs ({per_sweep})")
    for key, cases in diffs.items():
        summary = ", ".join(f"sweep {s}: {sum(1 for c in cases if c[0] == s)}" for s in SWEEPS)
        if all(isinstance(v, int) for c in cases for v in c[2:]):
            summary += (f"; {sum(c[3] > c[2] for c in cases)} higher,"
                        f" {sum(c[3] < c[2] for c in cases)} lower")
        print(f"{key}: differs in {len(cases)} run(s) ({summary})")
        for _, label, before, after in cases[:EXAMPLES]:
            print(f"  {label}: {short(before)} -> {short(after)}")
    sys.exit(0 if same == len(runs) else 1)


if __name__ == "__main__":
    main()
