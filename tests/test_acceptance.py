"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single PASS line on success (visible with ``pytest -rA``
or ``-s``); a failure reads as the criterion number in the test name.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import annuli
from annuli import (
    DiffModule,
    PolyFunc,
    TRPSet,
    TwistedPoly,
    UnimodularMatrix,
    ValuationConfig,
    build_radius_profile,
    direct_sum,
    frob_pull,
    frob_push,
    from_companion,
    intrinsic_radius_multi,
    newton_polygon,
    rank_one,
    reconstruct_polyhedral,
    robba_factor,
    slope_functions,
    spectral_valuation_estimate,
    swan_breaks,
    synthetic_oracle,
    tensor,
    toroidal_pullback,
    twisted_mul,
    verify_variation,
    visible_radii,
    wn_radius,
)
from annuli.modules import RadiiMultiset
from annuli.profiles import ProfileCell, RadiusProfile
from helpers import classical_slope_list, eval_slopes, fiber_to_source, fully_capped

F = Fraction


def intrinsic_ms(entries):
    return RadiiMultiset.make([(F(v), int(m), False) for v, m in entries], "intrinsic")


def test_acceptance_01_frobenius_push_exact():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    for p in (2, 3, 5):
        thr, pure = F(1, p - 1), F(p, p - 1)
        for _ in range(100):
            f = F(rng.randint(0, 60), rng.randint(1, 12))
            got = frob_push(intrinsic_ms([(f, 1)]), p)
            # independent oracle: the two-case formula, recomputed inline
            if f < thr:
                want = intrinsic_ms([(p * f, 1), (pure, p - 1)])
            else:
                want = intrinsic_ms([(f + 1, p)])
            assert got == want
            if f > thr:  # away from the pure value the pullback is defined
                back = frob_pull(got, p)
                assert back == intrinsic_ms([(f, p)])
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS (frobenius pushforward exact, {elapsed:.3f}s)")


def test_acceptance_02_wn_values():
    for p in (2, 3, 5, 7):
        assert wn_radius(0, p) == 0
        for n in range(1, p):
            assert wn_radius(n, p) == F(p, p - 1)
    print("ACCEPTANCE 2: PASS (W_n values p/(p-1) exact)")


def _twist(cfg, k):
    return rank_one(cfg, {"t1": cfg.t(1, -k)})


def test_acceptance_03_christol_dwork():
    t0 = time.monotonic()
    mods = []
    for p in (2, 3):
        cfg = ValuationConfig(p, (), 1)
        t = cfg.t(1)
        mods.append((cfg, _twist(cfg, 2)))
        mods.append((cfg, _twist(cfg, 3)))
        mods.append((cfg, direct_sum(_twist(cfg, 2), _twist(cfg, 3))))
        mods.append((cfg, direct_sum(_twist(cfg, 2), _twist(cfg, 4))))
        mods.append(
            (cfg, direct_sum(direct_sum(_twist(cfg, 2), _twist(cfg, 3)), _twist(cfg, 4)))
        )
        mods.append(
            (
                cfg,
                from_companion(
                    twisted_mul(
                        TwistedPoly(cfg, "t1", [-t ** -2, cfg.one()]),
                        TwistedPoly(cfg, "t1", [-t ** -4, cfg.one()]),
                    )
                ),
            )
        )
    assert len(mods) >= 10
    r = [F(1)]
    for cfg, M in mods:
        top = visible_radii(M, "t1", r).top()
        assert top[1] is False  # visible spectrum
        v_sp = cfg.omega - top[0]  # exact Newton-polygon value
        est, _ = spectral_valuation_estimate(M, "t1", r, 256)
        assert abs(est - v_sp) <= F(1, 10)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3: PASS ({len(mods)} modules, estimate within 1/10, {elapsed:.1f}s)")


def _variation_corpus():
    out = []
    for p in (2, 3):
        cfg = ValuationConfig(p, (), 1)
        out.append((cfg, _twist(cfg, 2), "t1", "geometric"))
        out.append((cfg, _twist(cfg, 3), "t1", "geometric"))
        out.append((cfg, direct_sum(_twist(cfg, 2), _twist(cfg, 3)), "t1", "geometric"))
        out.append((cfg, direct_sum(_twist(cfg, 2), _twist(cfg, 4)), "t1", "geometric"))
        out.append(
            (cfg, direct_sum(direct_sum(_twist(cfg, 2), _twist(cfg, 3)), _twist(cfg, 4)),
             "t1", "geometric")
        )
        out.append((cfg, tensor(_twist(cfg, 2), _twist(cfg, 3)), "t1", "geometric"))
        out.append((cfg, _twist(cfg, 2), "intrinsic", "intrinsic"))
        out.append((cfg, direct_sum(_twist(cfg, 2), _twist(cfg, 3)), "intrinsic", "intrinsic"))
        cfgu = ValuationConfig(p, (F(0),), 1)
        Mu = rank_one(cfgu, {"u1": cfgu.u(1, -1) * cfgu.t(1, -1)})
        out.append((cfgu, Mu, "u1", "base"))
        Mu2 = rank_one(cfgu, {"u1": cfgu.u(1, -1) * cfgu.t(1, -2)})
        out.append((cfgu, Mu2, "u1", "base"))
    return out


def test_acceptance_04_variation_suite():
    corpus = _variation_corpus()
    assert len(corpus) >= 20
    for cfg, M, axis, axis_class in corpus:
        prof = build_radius_profile(M, axis, "t1", (F(1), F(2)))
        assert not fully_capped(prof)
        rep = verify_variation(prof, "annulus", axis_class, cfg.p)
        assert rep.passed, f"{axis_class} profile failed: {rep.failures()}"
    print(f"ACCEPTANCE 4: PASS ({len(corpus)} modules, all variation clauses exact)")


def test_acceptance_05_parametric_hull():
    rng = random.Random(555)
    cfg = ValuationConfig(2, (), 1)
    window = (F(-2), F(2))
    checked = 0
    for _ in range(100):
        d = rng.randint(1, 3)
        coeffs = []
        for _ in range(d):
            c = cfg.zero()
            for _ in range(rng.randint(0, 2)):
                c = c + cfg.monomial(
                    F(rng.randint(1, 8), rng.choice((1, 2, 4))) * rng.choice((1, -1)),
                    t=(rng.randint(-3, 3),),
                )
            coeffs.append(c)
        coeffs.append(cfg.one())
        P = TwistedPoly(cfg, "t1", coeffs)
        sf = slope_functions(P, "t1", window)
        for _ in range(50):
            r = F(rng.randint(-32, 32), 16)
            assert eval_slopes(sf, r) == classical_slope_list(newton_polygon(P, [r]))
            checked += 1
        for Fi in sf.Fs:
            assert Fi.is_concave()
    assert checked == 5000
    print("ACCEPTANCE 5: PASS (100 polynomials x 50 fibers exact, concavity exact)")


def test_acceptance_06_robba_factorization():
    r = [F(1)]
    for p in (2, 3):
        cfg = ValuationConfig(p, (), 1)
        t = cfg.t(1)
        factors = [
            TwistedPoly(cfg, "t1", [-t ** -2, cfg.one()]),
            TwistedPoly(cfg, "t1", [-t ** -3, cfg.one()]),
            TwistedPoly(cfg, "t1", [-t ** -4 + cfg.scalar(p) * t ** -2, cfg.one()]),
        ]
        for i in range(len(factors)):
            for j in range(len(factors)):
                if i == j:
                    continue
                A, B = factors[i], factors[j]
                prod = twisted_mul(A, B)
                slopes = newton_polygon(prod, r).slope_list()
                assert len(set(slopes)) == 2
                split = (slopes[0] + slopes[1]) / 2
                qlo, qhi, res = robba_factor(prod, r, split, F(10))
                assert res >= 10 or res is None
                diff = prod - twisted_mul(qlo, qhi)
                assert diff.is_zero() or diff.min_valuation(r) >= 10
                got = sorted(
                    newton_polygon(qlo, r).slope_list()
                    + newton_polygon(qhi, r).slope_list()
                )
                assert got == sorted(slopes)
    print("ACCEPTANCE 6: PASS (factor residuals >= 10, slope multisets partition exactly)")


def test_acceptance_07_toroidal_invariance():
    mats = [
        UnimodularMatrix.make([[1, 1], [0, 1]]),
        UnimodularMatrix.make([[1, 0], [1, 1]]),
        UnimodularMatrix.make([[2, 1], [1, 1]]),
        UnimodularMatrix.make([[1, -1], [0, 1]]),
    ]
    count = 0
    for p in (2, 3):
        cfg = ValuationConfig(p, (), 2)
        pairs = [
            (F(1, p), F(1, p ** 2)),
            (F(1, p ** 2), F(1, p ** 3)),
            (F(1, p), F(2, p ** 3)),
        ]
        for a, b in pairs:
            M = DiffModule(
                cfg,
                1,
                {
                    "t1": [[cfg.scalar(a) * cfg.t(1, -1)]],
                    "t2": [[cfg.scalar(b) * cfg.t(2, -1)]],
                },
                check=False,
            )
            r = (F(1), F(2))
            before = intrinsic_radius_multi(M, list(r))
            assert not before.capped
            for A in mats[: 3 if count % 2 else 4]:
                MA = toroidal_pullback(M, A)
                rho = fiber_to_source(A, r)
                after = intrinsic_radius_multi(MA, list(rho))
                assert not after.capped
                assert after.value == before.value
            count += 1
    assert count >= 5
    print(f"ACCEPTANCE 7: PASS ({count} bi-monomial modules, >= 3 matrices each, exact)")


def test_acceptance_08_polyhedral_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(808)
    done = 0
    while done < 20:
        # random compact TRP domain: a box cut by up to two integer halfplanes
        lo1, lo2 = F(rng.randint(-3, 0)), F(rng.randint(-3, 0))
        hi1, hi2 = lo1 + rng.randint(2, 4), lo2 + rng.randint(2, 4)
        C = TRPSet.box([(lo1, hi1), (lo2, hi2)])
        for _ in range(rng.randint(0, 2)):
            sl = (rng.randint(-2, 2), rng.randint(-2, 2))
            if sl == (0, 0):
                continue
            cen = ((lo1 + hi1) / 2, (lo2 + hi2) / 2)
            const = F(rng.randint(0, 4), rng.choice((1, 2))) - (
                sl[0] * cen[0] + sl[1] * cen[1]
            )
            cand = TRPSet.make(list(C.constraints) + [(sl, const)], 2)
            if len(cand.vertices()) >= 3:  # has interior
                C = cand
        fs = [
            (
                (rng.randint(-3, 3), rng.randint(-3, 3)),
                F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4))),
            )
            for _ in range(rng.randint(1, 5))
        ]
        g = PolyFunc.make(fs)
        got = reconstruct_polyhedral(C, synthetic_oracle(g, C))
        verts = C.vertices()
        n = len(verts)
        for _ in range(200):
            w = [F(rng.randint(0, 16)) for _ in range(n)]
            tot = sum(w) or F(1)
            x = (
                sum(wi * v[0] for wi, v in zip(w, verts)) / tot,
                sum(wi * v[1] for wi, v in zip(w, verts)) / tot,
            )
            assert got(x) == g(x)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 8: PASS (20 reconstructions, 200 points each, {elapsed:.1f}s)")


def test_acceptance_09_swan_breaks():
    def make(p, rank, slopes):
        cells = (
            ProfileCell(
                F(0),
                F(1, 2),
                tuple((F(s), F(0)) for s in slopes),
                rank - len(slopes),
                (F(0), F(1, p - 1) if p else F(0)),
            ),
        )
        return RadiusProfile("intrinsic", "intrinsic", p, rank, (F(0), F(1, 2)), cells)

    cases = [
        (2, 1, [1], ((F(1), 1),)),
        (2, 2, [2, 1], ((F(2), 1), (F(1), 1))),
        (2, 3, [1, F(1, 2), F(1, 2)], ((F(1), 1), (F(1, 2), 2))),
        (3, 3, [F(2, 3)] * 3, ((F(2, 3), 3),)),
        (5, 2, [F(3, 2), F(1, 2)], ((F(3, 2), 1), (F(1, 2), 1))),
    ]
    for p, rank, slopes, want in cases:
        out = swan_breaks(make(p, rank, slopes))
        assert out.breaks == want
        total = sum((b * m for b, m in out.breaks), F(0))
        assert total.denominator == 1
        assert out.report.passed
    print("ACCEPTANCE 9: PASS (planted breaks recovered, weighted sums integral)")


def test_acceptance_10_cli_determinism(tmp_path):
    module_obj = {
        "rank": 2,
        "p": 2,
        "u_weights": [],
        "n_geom": 1,
        "matrices": {
            "t1": [
                [{"terms": [{"c": "1", "u": [], "t": [-2]}]}, {"terms": []}],
                [{"terms": []}, {"terms": [{"c": "1", "u": [], "t": [-3]}]}],
            ]
        },
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(module_obj), encoding="utf-8")
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps({"p": 2, "entries": [["1/2", 1], ["7/3", 2]]}), encoding="utf-8")

    commands = [
        ["radii", "--input", str(mpath), "--axis", "t1", "--geom", "t1",
         "--window", "1", "2", "--format", "csv"],
        ["radii", "--input", str(mpath), "--axis", "intrinsic", "--geom", "t1",
         "--window", "1", "2", "--format", "json"],
        ["radii", "--input", str(mpath), "--axis", "t1", "--geom", "t1",
         "--window", "1", "2", "--format", "svg"],
        ["verify", "--input", str(mpath), "--axis", "t1", "--geom", "t1",
         "--window", "1", "2"],
        ["frobenius", "--input", str(spath), "--op", "push"],
        ["loci", "--input", str(mpath), "--axis", "t1", "--geom", "t1",
         "--window", "1", "2"],
    ]
    # the child process imports the same annuli package as this one
    src = str(Path(annuli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for _ in range(2):
        blobs = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "annuli.cli"] + argv,
                capture_output=True,
                check=True,
                env=env,
            )
            blobs.append(proc.stdout)
        runs.append(b"\x00".join(blobs))
    assert runs[0] == runs[1]
    print("ACCEPTANCE 10: PASS (byte-identical CLI artifacts across runs)")
