"""The benchmark's workloads: what each sample runs and how its output is checked.

``run_*`` functions execute inside a sample process and return plain JSON
observations; ``check`` compares observations with the hand-written
``expected.json`` in the parent, so a corrupted expected value shows as a
failed item.  Package functions are looked up on the module at call time, so
that the traced mode's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os

# A Betti entry counts as certified when it is exact over Q or rests on two
# agreeing primes; which of the two is not pinned, so that a later exact
# route still passes.
CERTIFIED = ("exact", "two-prime")

WORKLOADS = {
    # the paper's n = 4 table; the d_5 rank (98,976 columns, two primes)
    # makes it elimination-bound
    "betti-h22-d4": {"betti": {"p": 2, "q": 2, "max_degree": 4}},
    # the wider dim-21 algebra: d_4 generates 194k columns for few pivots,
    # so column generation dominates
    "betti-h33-d3": {"betti": {"p": 3, "q": 3, "max_degree": 3}},
    # the exact claims over Q at both n = 4 signatures: invariant tables,
    # the gamma~ sign, cycles and boundary witnesses; no modular work
    "claims-exact-n4": {"claims": {"sigs": [(2, 2), (3, 1)], "witnesses": True}},
    # tiny workload for the self-test; the low exact cap sends d_3 to the
    # modular engine so that every layer but the witness solve runs
    "smoke": {
        "betti": {"p": 2, "q": 2, "max_degree": 2, "cap_exact": 100},
        "claims": {"sigs": [(2, 2)], "witnesses": False},
    },
}


def signatures(spec: dict) -> list[tuple[int, int]]:
    sigs = list(spec["claims"]["sigs"]) if "claims" in spec else []
    if "betti" in spec:
        sigs.append((spec["betti"]["p"], spec["betti"]["q"]))
    return sorted(set(sigs))


def run(spec: dict, seed: int, scratch: str) -> dict:
    obs: dict = {}
    if "betti" in spec:
        obs["betti"] = run_betti(spec["betti"], seed, scratch)
    if "claims" in spec:
        witnesses = spec["claims"]["witnesses"]
        obs["claims"] = {f"{p},{q}": run_claims(p, q, witnesses) for p, q in spec["claims"]["sigs"]}
    return obs


def run_betti(spec: dict, seed: int, scratch: str) -> dict:
    from leibniz_homology import cli

    path = os.path.join(scratch, f"report-{os.getpid()}.json")
    argv = ["homology", "--p", str(spec["p"]), "--q", str(spec["q"]),
            "--max-degree", str(spec["max_degree"]), "--seed", str(seed), "--json", path]
    if "cap_exact" in spec:
        argv += ["--cap-exact", str(spec["cap_exact"])]
    code = cli.main(argv)
    with open(path, "rb") as fh:
        raw = fh.read()
    os.remove(path)
    report = json.loads(raw)["results"][0]
    return {
        "exit_code": code,
        "betti": [e["betti"] for e in report["entries"]],
        "certification": [e["certification"] for e in report["entries"]],
        "digest": hashlib.sha256(raw).hexdigest(),
    }


def run_claims(p: int, q: int, witnesses: bool) -> dict:
    import leibniz_homology as lh

    sig = lh.Signature(p, q)
    h, so = lh.build_affine(sig), lh.build_so(sig)
    ks = range(sig.n + 1)
    out = {
        "wedge": [lh.invariant_subspace(so, lh.wedge_space(h, k)).dim for k in ks],
        "vector_wedge": [
            lh.invariant_subspace(so, lh.mixed_space(h, k, lead=h.translation_indices)).dim for k in ks
        ],
        "so_wedge": [lh.invariant_subspace(so, lh.mixed_space(h, k, lead=h.so_indices)).dim for k in ks],
    }
    sign, _ = lh.resolve_gamma_tilde_sign(sig)
    out["gamma_tilde_sign"] = sign
    gamma_bar = lh.make_gamma_bar(sig)
    # an unresolved sign fails its own check; +1 keeps the later checks running
    gamma_tilde = lh.make_gamma_tilde(sig, sign if sign is not None else 1)
    out["cycle"] = {"gamma_bar": lh.is_cycle(gamma_bar), "gamma_tilde": lh.is_cycle(gamma_tilde)}
    if witnesses:
        found = {
            "gamma_tilde - gamma_bar": lh.is_boundary(gamma_tilde - gamma_bar),
            "alpha_tilde": lh.is_boundary(lh.make_alpha_tilde(sig)),
        }
        out["witness"] = {name: x is not None for name, x in found.items()}
        terms = sorted((str(w), str(c)) for x in found.values() if x is not None for w, c in x.coeffs.items())
        out["witness_terms_sha256"] = hashlib.sha256(repr(terms).encode()).hexdigest()
    return out


def check(spec: dict, obs: dict, expected: dict) -> list[tuple[str, bool]]:
    """(item, passed) for every checked output of one sample."""
    items: list[tuple[str, bool]] = []
    if "betti" in obs:
        got, betti = obs["betti"], spec["betti"]
        table = expected["betti"][f"h({betti['p']},{betti['q']})"][: betti["max_degree"] + 1]
        items.append(("exit_code", got["exit_code"] == 0))
        for k, want in enumerate(table):
            ok = (
                k < len(got["betti"])
                and got["betti"][k] == want
                and got["certification"][k] in CERTIFIED
            )
            items.append((f"betti[{k}]", ok))
    for sig, got in obs.get("claims", {}).items():
        want = expected["n=4"]
        for table in ("wedge", "vector_wedge", "so_wedge"):
            items.append((f"{sig}.{table}", got[table] == want["invariant_tables"][table]))
        items.append((f"{sig}.gamma_tilde_sign", got["gamma_tilde_sign"] == want["gamma_tilde_sign"]))
        for name, is_cycle in want["cycle"].items():
            items.append((f"{sig}.cycle.{name}", got["cycle"][name] == is_cycle))
        if spec["claims"]["witnesses"]:
            for name, exists in want["witness"].items():
                items.append((f"{sig}.witness.{name}", got["witness"][name] == exists))
    return items


def digest(obs: dict) -> str:
    """One digest of a sample's reports; samples with the same seed must agree."""
    parts = [obs["betti"]["digest"]] if "betti" in obs else []
    if "claims" in obs:
        parts.append(hashlib.sha256(json.dumps(obs["claims"], sort_keys=True).encode()).hexdigest())
    return "+".join(parts)
