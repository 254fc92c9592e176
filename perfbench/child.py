"""One cold run of one workload, started by run.py in a fresh interpreter.

    python3 child.py INPUTS_JSON OUT_DIR TRACE RESULT_JSON

INPUTS_JSON holds the generated inputs.  CLI workloads list barlog
command lines; each one's stdout goes to OUT_DIR/out<i>.json, as a user
redirecting the command's output would get it.  The oracles workload
lists library checks, whose numbers go to RESULT_JSON for run.py to
judge.  With TRACE=1 the layer entry points are wrapped first (see
layers.py) and the layer metrics are added to the result.

The parent times the child from spawn; the child reports, on the same
monotonic clock, when `import barlog` returned and when its work ended.
"""

import json
import os
import sys
import time


def run_cli(inputs, out_dir):
    from barlog import cli

    returncodes, output_bytes = [], 0
    for i, argv in enumerate(inputs["commands"]):
        with open(os.path.join(out_dir, f"out{i}.json"), "w",
                  encoding="utf-8") as fh:
            saved, sys.stdout = sys.stdout, fh
            try:
                returncodes.append(cli.run(argv))
            finally:
                sys.stdout = saved
            output_bytes += fh.tell()
    return {"returncodes": returncodes, "output_bytes": output_bytes}


def _product(a, b):
    """Value and truncation bound of the product of two EvalResults."""
    bound = (abs(a.value) * b.truncation_bound
             + abs(b.value) * a.truncation_bound
             + a.truncation_bound * b.truncation_bound)
    return a.value * b.value, bound


def run_oracles(inputs):
    from barlog import duality, harmonic, hyperlog

    n = inputs["series_terms"]
    checks = []

    # 1. Quadrature of phi(W', W'') along a two-leg contour from the
    # origin against the series product L(theta1 W'; z1) L(theta2 W''; z2).
    # Pairs are taken in the seeded order while their phi fits the word
    # quota, so every seed integrates the same number of words.
    quota, used = inputs["word_quota"], 0
    for item in inputs["pairs"]:
        if used == quota:
            break
        w1, w2 = tuple(item["w1"]), tuple(item["w2"])
        p = duality.phi(w1, w2, direction="1x2")
        if used + len(p.terms) > quota:
            continue
        used += len(p.terms)
        path = [tuple(pt) for pt in item["path"]]
        z1, z2 = path[-1]
        quad = hyperlog.eval_quadrature(p, path)
        left = hyperlog.word_to_term(duality.theta(w1, "1x2", "left"))
        right = hyperlog.word_to_term(duality.theta(w2, "1x2", "right"))
        value, bound = _product(hyperlog.eval_series(left, z1, z2, n),
                                hyperlog.eval_series(right, z1, z2, n))
        checks.append({"kind": "quadrature", "w1": list(w1),
                       "w2": list(w2), "words": len(p.terms),
                       "residual": abs(quad - value), "bound": bound,
                       "tol": inputs["quadrature_tol"]})
    checks.append({"kind": "word_quota", "words": used, "quota": quota,
                   "passed": used == quota})

    # 2. Two-variable harmonic expansion: closed form against the
    # recursion, and numerically against the product of its factors.
    for item in inputs["index_pairs"]:
        k, l = tuple(item["k"]), tuple(item["l"])
        z1, z2 = item["point"]
        expansion = harmonic.mpl_harmonic_expand(k, l)
        checks.append({"kind": "expand_match", "k": list(k), "l": list(l),
                       "passed": expansion == harmonic.recursion_expand(k, l)})
        lhs, lhs_bound = _product(
            harmonic.eval_tagged((k, (len(k), 0), "12"), z1, z2, n),
            harmonic.eval_tagged((l, (len(l), 0), "12"), z2, z1, n))
        rhs, rhs_bound = harmonic.eval_sum(expansion, z1, z2, n)
        checks.append({"kind": "expand_numeric", "k": list(k), "l": list(l),
                       "residual": abs(lhs - rhs),
                       "bound": lhs_bound + rhs_bound,
                       "tol": inputs["series_tol"]})

    # 3. Stuffle and duality identities among truncated zeta values.
    m = inputs["mzv_terms"]
    zeta = {idx: harmonic.mzv_truncated(idx, m)
            for idx in ((2,), (3,), (5,), (2, 3), (3, 2), (2, 1))}
    z2, z3 = zeta[(2,)], zeta[(3,)]
    lhs = z2.value * z3.value
    lhs_bound = (abs(z2.value) * z3.truncation_bound
                 + abs(z3.value) * z2.truncation_bound
                 + z2.truncation_bound * z3.truncation_bound)
    parts = [zeta[idx] for idx in ((2, 3), (3, 2), (5,))]
    checks.append({"kind": "mzv_stuffle",
                   "residual": abs(lhs - sum(p.value for p in parts)),
                   "bound": lhs_bound + sum(p.truncation_bound
                                            for p in parts),
                   "tol": inputs["mzv_tol"]})
    a, b = zeta[(2, 1)], zeta[(3,)]
    checks.append({"kind": "mzv_duality", "residual": abs(a.value - b.value),
                   "bound": a.truncation_bound + b.truncation_bound,
                   "tol": inputs["mzv_tol"]})
    return {"checks": checks}


def main(argv):
    inputs_path, out_dir, trace, result_path = argv
    import barlog  # noqa: F401  (the measured set-up: barlog and numpy)
    t_imported = time.perf_counter()
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    tracer = None
    if trace == "1":
        import layers
        tracer = layers.install()
    if inputs["kind"] == "import":
        result = {}
    elif inputs["kind"] == "cli":
        result = run_cli(inputs, out_dir)
    else:
        result = run_oracles(inputs)
    t_done = time.perf_counter()
    result.update(t_imported=t_imported, t_done=t_done)
    if tracer is not None:
        result["trace"], result["covered_s"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
