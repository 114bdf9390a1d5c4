"""Equivalence tests for the compiled simulation engine and the PAR kernels.

The compiled engine must be *bit-identical* to the legacy per-node
interpreter for every circuit shape and pattern count, and the placement
kernel must reproduce its exact results for fixed seeds (the annealer draws
the same random sequence and computes exact integer deltas).
"""

import random

import pytest
from helpers import exhaustive_patterns, simulate_single
from oracles import simulate_patterns_reference

from repro.fpga.architecture import auto_size
from repro.netlist.circuit import Circuit, Op
from repro.netlist.engine import CompiledCircuit, compile_circuit
from repro.netlist.hdl import Design
from repro.netlist.simulate import random_patterns, simulate_patterns, simulate_words
from repro.par.netlist import from_mapped_network
from repro.par.placement import hpwl, place
from repro.synth.optimize import optimize
from repro.techmap import map_conventional, map_parameterized

ALL_GATES = (Op.BUF, Op.NOT, Op.AND, Op.OR, Op.XOR, Op.NAND, Op.NOR, Op.XNOR, Op.MUX)


def random_circuit(rng, num_inputs=4, num_params=2, num_gates=40, with_consts=True):
    """A random DAG exercising every Op kind, params and constants."""
    c = Circuit()
    pool = [c.add_input(f"i{k}") for k in range(num_inputs)]
    pool += [c.add_param(f"p{k}") for k in range(num_params)]
    if with_consts:
        pool.append(c.const(0))
        pool.append(c.const(1))
    for _ in range(num_gates):
        op = rng.choice(ALL_GATES)
        arity = Op.ARITY[op] or rng.randint(2, 4)
        pool.append(c.gate(op, *(rng.choice(pool) for _ in range(arity))))
    for j, node in enumerate(rng.sample(pool, min(4, len(pool)))):
        c.add_output(f"o{j}", node)
    return c


class TestCompiledEngineEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_all_pattern_counts(self, seed):
        rng = random.Random(seed)
        c = random_circuit(
            rng,
            num_inputs=rng.randint(1, 6),
            num_params=rng.randint(0, 3),
            num_gates=rng.randint(5, 80),
            with_consts=bool(seed % 2),
        )
        for num_patterns in (1, 3, 63, 64, 65, 128, 200):
            inputs = {nid: rng.getrandbits(num_patterns) for nid in c.input_ids()}
            params = {nid: rng.getrandbits(num_patterns) for nid in c.param_ids()}
            ref = simulate_patterns_reference(c, inputs, num_patterns, params)
            new = simulate_patterns(c, inputs, num_patterns, params)
            assert ref == new

    def test_unspecified_leaves_default_to_zero(self):
        c = Circuit()
        a = c.add_input("a")
        p = c.add_param("p")
        c.add_output("o", c.g_or(a, p))
        ref = simulate_patterns_reference(c, {}, 8)
        new = simulate_patterns(c, {}, 8)
        assert ref == new

    def test_exhaustive_patterns_drive_identical_truth_tables(self):
        rng = random.Random(99)
        c = random_circuit(rng, num_inputs=4, num_params=0, num_gates=30)
        pats = exhaustive_patterns(c.input_ids())
        n = 1 << len(c.input_ids())
        assert simulate_patterns(c, pats, n) == simulate_patterns_reference(c, pats, n)

    def test_exhaustive_patterns_closed_form(self):
        c = Circuit()
        ids = [c.add_input(f"i{k}") for k in range(5)]
        pats = exhaustive_patterns(ids)
        for i, nid in enumerate(ids):
            expected = 0
            for p in range(32):
                if (p >> i) & 1:
                    expected |= 1 << p
            assert pats[nid] == expected

    def test_compiled_artifact_is_cached_and_invalidated(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("o", c.g_not(a))
        eng1 = compile_circuit(c)
        assert compile_circuit(c) is eng1
        c.add_output("o2", c.g_not(c.add_input("b")))  # grow the circuit
        eng2 = compile_circuit(c)
        assert eng2 is not eng1
        assert eng2.num_nodes == len(c.ops)

    def test_direct_engine_matches_wrapper(self):
        rng = random.Random(5)
        c = random_circuit(rng)
        eng = CompiledCircuit(c)
        inputs = {nid: rng.getrandbits(70) for nid in c.input_ids()}
        assert eng.simulate(inputs, 70) == simulate_patterns_reference(c, inputs, 70)

    def test_simulate_words_matches_per_pattern_single(self):
        d = Design("mix")
        a = d.input_bus("a", 5)
        b = d.input_bus("b", 5)
        s, co = d.adder(a, b)
        d.output_bus("s", s)
        d.output_bit("cout", co)
        rng = random.Random(3)
        a_words = [rng.getrandbits(5) for _ in range(11)]
        b_words = [rng.getrandbits(5) for _ in range(11)]
        out = simulate_words(d.circuit, {"a": a_words, "b": b_words})
        for p, (x, y) in enumerate(zip(a_words, b_words)):
            bits = {}
            for k in range(5):
                bits[f"a[{k}]"] = (x >> k) & 1
                bits[f"b[{k}]"] = (y >> k) & 1
            single = simulate_single(d.circuit, bits)
            word = sum(single[f"s[{k}]"] << k for k in range(5))
            assert int(out["s"][p]) == word
            assert int(out["cout"][p]) == single["cout"]

    def test_simulate_words_wide_bus_uses_exact_path(self):
        # Buses wider than 64 bits must not hit np.uint64 shifts >= 64
        # (undefined behavior); the big-integer fallback handles them.
        d = Design("wide")
        a = d.input_bus("a", 70)
        d.output_bit("hi", a[69])
        d.output_bit("lo", a[0])
        words = [1, 1 << 69, (1 << 69) | 1]
        out = simulate_words(d.circuit, {"a": words})
        assert [int(v) for v in out["hi"]] == [0, 1, 1]
        assert [int(v) for v in out["lo"]] == [1, 0, 1]

    def test_random_patterns_are_deterministic_and_width_bounded(self):
        c = Circuit()
        for k in range(3):
            c.add_input(f"i{k}")
        p1 = random_patterns(c, 100)
        p2 = random_patterns(c, 100)
        assert p1 == p2
        assert all(v < (1 << 100) for v in p1.values())


def _mapped_adder(width=6, param=False):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.param_bus("b", width) if param else d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_parameterized(opt) if param else map_conventional(opt)


class TestKernelReproducibility:
    def test_batched_cost_exact_with_duplicate_net_pins(self):
        # PhysicalNetlist permits a repeated sink; the batched kernel must
        # dedup pins or its bbox boundary counts go stale, and the cost it
        # tracks incrementally drifts from the recomputed HPWL.
        from repro.par.netlist import PhysicalNetlist

        nl = PhysicalNetlist("dup")
        pi = nl.add_block("pi", "io")
        blocks = [nl.add_block(f"l{i}", "clb") for i in range(6)]
        nl.add_net("fan", pi, [blocks[0], blocks[1], blocks[0]])  # duplicated sink
        for i in range(5):
            nl.add_net(f"n{i}", blocks[i], [blocks[i + 1], blocks[0], blocks[i + 1]])
        po = nl.add_block("po", "io")
        nl.add_net("out", blocks[-1], [po])
        nl.validate()
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=4)
        for seed in (0, 1, 5):
            result = place(nl, arch, seed=seed)
            assert result.moves_accepted > 0
            assert result.cost == hpwl(nl, result.placement), seed

    def test_placement_is_seed_reproducible(self):
        network = _mapped_adder(4)
        netlist = from_mapped_network(network)
        arch = auto_size(
            netlist.num_logic_blocks(), netlist.num_io_blocks(), channel_width=8
        )
        a = place(netlist, arch, seed=11, effort=0.4)
        b = place(netlist, arch, seed=11, effort=0.4)
        assert a.cost == b.cost and a.moves_accepted == b.moves_accepted
