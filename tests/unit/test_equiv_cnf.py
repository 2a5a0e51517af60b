"""Exhaustive per-cell CNF cross-checks against the 4-valued tables.

Every combinational cell kind in ``netlist/cells.py`` is encoded both
through the raw Tseitin generators (``cell_clauses``) and the structural
encoder (``StructuralEncoder.cell_lit``), and checked on **every** binary
input assignment against ``logic/tables.py`` -- the single source of
truth both simulation engines evaluate through.

X-handling: CNF is binary-only by design.  A 4-valued ``X`` in the
co-analysis means "either binary value"; the SAT solver explores both
branches of that choice explicitly, so the clauses only need to
characterize the cell on known (0/1) inputs.  The one obligation the
4-valued rows impose is *consistency*: whenever the table yields a known
output for a partially-X input row (e.g. ``AND(0, X) = 0``), every
binary completion of that row must yield the same output -- otherwise
the binary encoding could disagree with a Kleene-derived constant.  The
`test_x_rows_are_binary_consistent` check pins that down.
"""

import itertools

import pytest

from repro.equiv.cnf import (CELL_CLAUSES, FALSE_LIT, TRUE_LIT, CnfBuilder,
                             StructuralEncoder, cell_clauses)
from repro.equiv.solver import Solver
from repro.logic import Logic
from repro.logic.tables import COMB_EVAL, evaluate
from repro.netlist.cells import COMB_KINDS, SEQ_KINDS, kind as cell_kind

BINARY = (Logic.L0, Logic.L1)


def to_logic(bit):
    return Logic.L1 if bit else Logic.L0


def clause_models(kind, arity):
    """All (inputs, output) pairs satisfying the cell's raw clauses."""
    builder = CnfBuilder()
    out = builder.new_var()
    ins = [builder.new_var() for _ in range(arity)]
    for cl in cell_clauses(kind, out, ins):
        builder.add_clause(cl)
    models = set()
    for bits in itertools.product((False, True), repeat=arity + 1):
        solver = Solver(builder.n_vars, builder.clauses)
        assum = [v if b else -v for v, b in zip([out] + ins, bits)]
        if solver.solve(assum).is_sat:
            models.add(bits)
    return models


class TestRawClauses:
    """cell_clauses == logic/tables.py on every binary input row."""

    @pytest.mark.parametrize("kind", sorted(COMB_KINDS))
    def test_exhaustive_binary_agreement(self, kind):
        arity = cell_kind(kind).arity
        expected = set()
        for bits in itertools.product((False, True), repeat=arity):
            out = evaluate(kind, [to_logic(b) for b in bits])
            assert out.is_known, \
                f"{kind} must be binary-valued on binary inputs"
            expected.add((out is Logic.L1, *bits))
        assert clause_models(kind, arity) == expected

    def test_every_comb_kind_has_a_generator(self):
        assert set(CELL_CLAUSES) == set(COMB_KINDS)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            cell_clauses("DFF", 1, [2])


class TestStructuralEncoder:
    """cell_lit agrees with the tables through the node algebra."""

    @pytest.mark.parametrize("kind", sorted(COMB_KINDS))
    def test_exhaustive_binary_agreement(self, kind):
        arity = cell_kind(kind).arity
        enc = StructuralEncoder()
        ins = [enc.builder.new_var() for _ in range(arity)]
        lit = enc.cell_lit(kind, ins)
        for bits in itertools.product((False, True), repeat=arity):
            want = evaluate(kind, [to_logic(b) for b in bits]) is Logic.L1
            solver = Solver(enc.builder.n_vars, enc.builder.clauses)
            assum = [v if b else -v for v, b in zip(ins, bits)]
            assum.append(lit if want else -lit)
            assert solver.solve(assum).is_sat, \
                f"{kind}{bits} should produce {int(want)}"
            solver = Solver(enc.builder.n_vars, enc.builder.clauses)
            assum[-1] = -assum[-1]
            assert solver.solve(assum).is_unsat, \
                f"{kind}{bits} must not produce {int(not want)}"

    @pytest.mark.parametrize("kind", sorted(COMB_KINDS))
    def test_constant_folding_matches_tables(self, kind):
        """Feeding constant literals folds to the table's constant."""
        arity = cell_kind(kind).arity
        for bits in itertools.product((False, True), repeat=arity):
            enc = StructuralEncoder()
            ins = [TRUE_LIT if b else FALSE_LIT for b in bits]
            lit = enc.cell_lit(kind, ins)
            want = evaluate(kind, [to_logic(b) for b in bits]) is Logic.L1
            assert lit == (TRUE_LIT if want else FALSE_LIT)
            assert enc.builder.n_vars == 1, "no variables for constants"

    def test_structural_sharing_across_polarities(self):
        enc = StructuralEncoder()
        a, b = enc.builder.new_var(), enc.builder.new_var()
        x = enc.xor2(a, b)
        assert enc.xor2(-a, b) == -x
        assert enc.xor2(a, -b) == -x
        assert enc.xor2(-a, -b) == x
        assert enc.xor2(b, a) == x          # commutative canonical order
        n_and = enc.and2(a, b)
        assert enc.and2(b, a) == n_and

    def test_flop_next_state_matches_cycle_sim(self):
        """flop_next_lit mirrors CycleSim.clock_edge exactly."""
        from repro.netlist import Netlist
        from repro.sim.cycle_sim import CycleSim, compile_netlist

        for kind in sorted(SEQ_KINDS):
            arity = cell_kind(kind).arity
            nl = Netlist(f"flop_{kind}")
            pins = [nl.add_net(f"i{k}") for k in range(arity)]
            for p in pins:
                nl.mark_input(p)
            q = nl.add_net("q")
            nl.add_gate("u0", kind, pins, q)
            nl.mark_output(q)
            sim = CycleSim(compile_netlist(nl))

            for q0 in (False, True):
                for bits in itertools.product((False, True), repeat=arity):
                    sim.set_net(q, to_logic(q0))
                    for p, bv in zip(pins, bits):
                        sim.set_net(p, to_logic(bv))
                    sim.settle()
                    sim.clock_edge()
                    want = sim.get_net(q) is Logic.L1

                    enc = StructuralEncoder()
                    qlit = enc.builder.new_var()
                    inlits = [enc.builder.new_var() for _ in range(arity)]
                    nxt = enc.flop_next_lit(kind, qlit, inlits)
                    solver = Solver(enc.builder.n_vars,
                                    enc.builder.clauses)
                    assum = [qlit if q0 else -qlit]
                    assum += [v if bv else -v
                              for v, bv in zip(inlits, bits)]
                    assum.append(nxt if want else -nxt)
                    assert solver.solve(assum).is_sat, \
                        (kind, q0, bits, want)


class TestXHandling:
    """The binary-only CNF is consistent with the 4-valued tables."""

    @pytest.mark.parametrize("kind", sorted(COMB_KINDS))
    def test_x_rows_are_binary_consistent(self, kind):
        """Whenever the 4-valued table yields a *known* output for a row
        containing X, every binary completion yields that same output --
        so Kleene-derived constants never contradict the CNF."""
        arity = cell_kind(kind).arity
        levels = (Logic.L0, Logic.L1, Logic.X)
        for row in itertools.product(levels, repeat=arity):
            if Logic.X not in row:
                continue
            out = evaluate(kind, list(row))
            if not out.is_known:
                continue
            free = [i for i, v in enumerate(row) if v is Logic.X]
            for fill in itertools.product(BINARY, repeat=len(free)):
                completed = list(row)
                for i, v in zip(free, fill):
                    completed[i] = v
                assert evaluate(kind, completed) is out, \
                    f"{kind}{row} known output must survive completion"

    def test_table_evaluate_covers_encoder_kinds(self):
        assert set(COMB_EVAL) == set(CELL_CLAUSES)
