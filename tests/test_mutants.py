"""Mutants: a wrong program must fail a check, not agree with itself.

Each test swaps one src function for a wrong one with monkeypatch and shows
which results move and which check catches it.
"""

import functools
import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from ctorsim import analytics, censor, codec, onion
from ctorsim.analytics import p_block_lnc
from ctorsim.censor import (
    BridgePool,
    CensorScenario,
    ConsistencyError,
    derive_rng,
    pipeline_checks,
    run_campaign,
    run_pipeline_checks,
    run_trial,
)
from ctorsim.cli import EXIT_USAGE, main
from ctorsim.codec import CELL_SIZE, CodeParams
from ctorsim.onion import CodedMessage, build_circuits, run_transfer
from wire_layout import mixed_k_cells, to_wire


@pytest.fixture
def fresh_trial_cells():
    """Pipeline trials share one encoding of the trial message per shape, so
    one built under a mutant must not outlive its test."""
    censor._trial_cells.cache_clear()
    yield
    censor._trial_cells.cache_clear()


def test_rule_as_b_at_least_r_moves_every_law_and_fails_the_pipeline(monkeypatch):
    """The blocked-count rule has one home and one count: with the bound off
    by one where analytics imports it, the exact tail and the campaign count
    both move, since both count through analytics.count_interrupted, while
    run_trial's check still agrees with the pipeline. It asks censor's own
    import of the rule, so it fails once that is off by one too."""
    params = CodeParams(4, 3, 1)
    s = CensorScenario(BridgePool.build(25, 5), params)
    trials, seed = 2_000, 11
    counts = censor._fast_blocked_counts(derive_rng(seed, "bridge-selection"), 30, 5, 4, trials)
    tail_from_1 = p_block_lnc(25, 5, 4, 0)
    interruptions = run_campaign(s, trials, seed).interruptions
    assert interruptions == sum(counts[2:])
    # every bridge of this pool is chosen, and exactly one is known: b = r;
    # the trial raises nothing, so its transfer survives as the rule says
    at_r = CensorScenario(BridgePool.build(3, 1), params)
    run_trial(at_r, random.Random(0))

    def mutant(blocked_count, params):
        return blocked_count >= params.r

    monkeypatch.setattr(analytics, "interrupted_by_rule", mutant)
    assert p_block_lnc(25, 5, 4, 1) == tail_from_1 == Fraction(14755, 27405)
    mutated = run_campaign(s, trials, seed).interruptions
    assert mutated == interruptions + counts[1]
    run_trial(at_r, random.Random(0))

    monkeypatch.setattr(censor, "interrupted_by_rule", mutant)
    with pytest.raises(ConsistencyError, match="interrupted=False but blocked_count=1"):
        run_trial(at_r, random.Random(0))


def test_wire_cells_with_the_last_byte_flipped_fail_every_transfer(monkeypatch, fresh_trial_cells):
    """The sub-flow writer flips the last payload byte of every cell. The
    wire is the encoder's only output, so the message still builds, and each
    exit hands on the parse of exactly the altered wire it is sent. The check that
    catches it is the transfer's comparison of the decoded bytes with the
    message: run_transfer fails though every generation received k cells or
    more, and run_trial and a point's pipeline checks raise ConsistencyError
    where the rule says a transfer succeeds."""
    params = CodeParams(4, 3, 1)
    message = random.Random(14).randbytes(1000)
    circuits = build_circuits([f"b{i}" for i in range(4)], random.Random(0))
    at_r = CensorScenario(BridgePool.build(3, 1), params)  # every bridge chosen, one known: b = r
    campaign = CensorScenario(BridgePool.build(25, 5), params)
    clean = CodedMessage(params, message)
    assert run_transfer(circuits, clean, message, {1}).success
    run_trial(at_r, random.Random(0))
    run_pipeline_checks([campaign], 10, 1)

    encode = onion.encode_subflows

    def flipped(generations, rows):
        cell_size = 4 + 1 + 1 + len(rows[0]) + CELL_SIZE
        wires = [bytearray(wire) for wire in encode(generations, rows)]
        for wire in wires:
            for last in range(cell_size - 1, len(wire), cell_size):
                wire[last] ^= 1
        return list(map(bytes, wires))

    monkeypatch.setattr(onion, "encode_subflows", flipped)
    censor._trial_cells.cache_clear()
    coded = CodedMessage(params, message)
    # it builds, holding the altered cells parsed from each wire
    for cells, clean_cells in zip(coded.cells, clean.cells, strict=True):
        assert [cell.payload[-1] ^ 1 for cell in cells] == [cell.payload[-1] for cell in clean_cells]
    for blocked in (set(), {1}):
        assert run_transfer(circuits, coded, message, blocked) == (False, 1, 4 - len(blocked))
    with pytest.raises(ConsistencyError, match="interrupted=True but blocked_count=1"):
        run_trial(at_r, random.Random(0))
    with pytest.raises(ConsistencyError, match="interrupted=True"):
        run_pipeline_checks([campaign], 10, 1)


def test_entry_and_middle_peeled_in_swapped_order_fail_the_exit_check(monkeypatch):
    """onion.peel_layer peels the entry and middle hops in swapped order: the
    entry's stream is removed at the middle's layer position and the
    middle's at the entry's, the bytes that peeling the middle first gives.
    The layer position is bound into each stream, so the peeled bytes differ
    from the sub-flow sent; the check that catches it is the exit's compare
    of the peeled int and size with that sub-flow: run_trial raises
    ValueError within a seeded budget of trials."""
    s = CensorScenario(BridgePool.build(25, 5), CodeParams(4, 3, 1))
    budget = 5
    rng = random.Random(0)
    for _ in range(budget):
        run_trial(s, rng)
    peel = onion.peel_layer

    def swapped(cell, relay_id):
        depth = cell.layers_remaining
        if depth not in (2, 3):
            return peel(cell, relay_id)
        return peel(cell._replace(layers_remaining=5 - depth), relay_id)._replace(layers_remaining=depth - 1)

    monkeypatch.setattr(onion, "peel_layer", swapped)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="did not peel back to the wire that was sent"):
        for _ in range(budget):
            run_trial(s, rng)


def test_middle_stream_wrapped_at_the_entry_depth_fails_the_exit_check(monkeypatch):
    """onion.wrap_layers XORs the middle hop's stream at layer position 3,
    the entry's, instead of 2. The middle's peel removes its depth-2 stream,
    so the exit is handed bytes that differ from the sub-flow sent; the
    check that catches it is the exit's compare of the peeled int and size
    with that sub-flow: run_trial raises ValueError within a seeded budget
    of trials."""
    s = CensorScenario(BridgePool.build(25, 5), CodeParams(10, 6, 4))
    budget = 5
    rng = random.Random(0)
    for _ in range(budget):
        run_trial(s, rng)

    def middle_at_depth_3(value, size, circuit):
        entry, middle, exit = circuit
        for relay_id, depth in ((exit, 1), (middle, 3), (entry, 3)):
            value ^= onion._derive_keystream(relay_id, entry, depth, size)
        return onion.LayeredCell(value, size, 3, entry)

    monkeypatch.setattr(onion, "wrap_layers", middle_at_depth_3)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="did not peel back to the wire that was sent"):
        for _ in range(budget):
            run_trial(s, rng)


def test_generations_sliced_one_stride_off_mix_generations(monkeypatch):
    """onion.run_transfer slices generation g's cells as arrived[g::G + 1]
    instead of arrived[g::G], where G is the number of generations each
    sub-flow carries. On a message of G >= 2 every slice then steps from one
    generation into the next; the check that catches it is
    decode_generations' refusal of a cell list whose generation ids differ
    ("coded cells from mixed generations"): every transfer that receives
    k sub-flows raises ValueError, blocked or not."""
    params = CodeParams(4, 3, 1)
    message = random.Random(17).randbytes(4000)
    coded = CodedMessage(params, message)
    assert len(coded.cells[0]) == 3
    circuits = build_circuits([f"b{i}" for i in range(4)], random.Random(0))
    blockings = (set(), {1}, {0, 3})
    assert [run_transfer(circuits, coded, message, blocked).success for blocked in blockings] == [True, True, False]

    def sliced_one_stride_off(circuits, coded, message, blocked=frozenset()):
        arrived = onion.transmit(circuits, coded, blocked)
        generations = len(coded.cells[0])
        delivered = len(arrived) // generations
        if delivered < coded.params.k:
            return onion.TransferResult(False, generations, delivered)
        decoded = codec.decode_generations([arrived[g :: generations + 1] for g in range(generations)], coded.params)
        return onion.TransferResult(codec.reassemble_message(decoded) == message, generations, delivered)

    monkeypatch.setattr(onion, "run_transfer", sliced_one_stride_off)
    for blocked in (set(), {1}):
        with pytest.raises(ValueError, match="^coded cells from mixed generations$"):
            onion.run_transfer(circuits, coded, message, blocked)


def test_generations_decoded_in_reverse_fail_reassembly(monkeypatch, capsys):
    """onion.run_transfer hands decode_generations its generations in
    reverse, g = G - 1 down to 0. The decoder returns them in the order
    given, so the check that catches it is reassemble_message's refusal of
    ids that do not run 0, 1, 2, ...: every transfer of G >= 2 that receives
    k sub-flows raises ValueError, blocked or not, such as every unblocked
    otor trial (the trial message is three generations of one cell) and an
    e2e run. A message of one generation comes back as before."""
    params = CodeParams(4, 3, 1)
    message = random.Random(19).randbytes(4000)
    coded = CodedMessage(params, message)
    assert len(coded.cells[0]) == 3
    circuits = build_circuits([f"b{i}" for i in range(4)], random.Random(0))
    otor = CensorScenario(BridgePool.build(25, 0), CodeParams(1, 1, 0))
    run_trial(otor, random.Random(0))
    decode = onion.decode_generations
    monkeypatch.setattr(onion, "decode_generations", lambda received, params: decode(received[::-1], params))
    for blocked in (set(), {1}):
        with pytest.raises(ValueError, match=r"^generation ids must be contiguous from 0, got \[2, 1, 0\]$"):
            run_transfer(circuits, coded, message, blocked)
    assert run_transfer(circuits, coded, message, {0, 3}) == (False, 3, 2)
    assert run_transfer(circuits, CodedMessage(params, message[:1000]), message[:1000], {1}) == (True, 1, 3)
    with pytest.raises(ValueError, match=r"^generation ids must be contiguous from 0, got \[2, 1, 0\]$"):
        run_trial(otor, random.Random(0))
    capsys.readouterr()
    assert main(["e2e", "--variant", "ctor:4:1", "--block", "2", "--message-size", "2000"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: generation ids must be contiguous from 0, got [1, 0]\n"


def test_first_parity_cell_written_with_the_second_parity_row_mixes_row_sets(monkeypatch):
    """The sub-flow writer puts the second parity row's coefficients in the
    header of generation 0's cell of the first parity sub-flow, over the
    payload the first row made. That wire's cells then carry two rows, so
    generation 0 arrives with other rows than the rest of its transfer; the
    check that catches it is decode_generations' refusal of a batch whose
    generations arrived with other rows: every transfer of G >= 2 that
    receives that sub-flow raises ValueError, blocked or not. A decoder that
    took each generation's own rows would rebuild generation 0 wrong, or
    not at all, and only when a data sub-flow is lost."""
    params = CodeParams(5, 3, 2)
    message = random.Random(18).randbytes(4000)
    circuits = build_circuits([f"b{i}" for i in range(5)], random.Random(0))
    assert len(CodedMessage(params, message).cells[0]) == 3
    encode = onion.encode_subflows

    def first_cell_with_the_next_row(generations, rows):
        k = len(rows[0])
        wires = encode(generations, rows)
        wires[k] = wires[k][:6] + rows[k + 1] + wires[k][6 + k :]
        return wires

    monkeypatch.setattr(onion, "encode_subflows", first_cell_with_the_next_row)
    coded = CodedMessage(params, message)
    second_parity_row = codec.build_generator(params)[4]
    assert [cells[0].coefficients for cells in coded.cells[3:]] == [second_parity_row] * 2
    for blocked in (set(), {1}, {4}):
        with pytest.raises(ValueError, match="^generations of one batch arrived with other coefficient rows$"):
            run_transfer(circuits, coded, message, blocked)
    assert run_transfer(circuits, coded, message, {3}).success  # the altered sub-flow is lost whole


@pytest.mark.parametrize("params", [CodeParams(4, 3, 1), CodeParams(10, 6, 4)], ids=["ctor-4-1", "ctor-10-4"])
def test_keystreams_that_ignore_the_circuit_id_are_uncaught_at_run_time(monkeypatch, params):
    """Every layer stream is derived without the circuit id. Wrap and peel
    take their streams from the same derivation, so each still cancels the
    other: every transfer comes out as before, every trial agrees with the
    rule, and no run-time check can catch it (expected-uncaught). Only the uncached
    reference streams of tests/test_onion.py (test_wrap_matches_reference,
    the int-layer and stream-cache tests) show that the wire differs."""
    s = CensorScenario(BridgePool.build(25, 5), params)
    message = random.Random(15).randbytes(3000)
    circuits = build_circuits([f"b{i}" for i in range(params.n)], random.Random(0))
    coded = CodedMessage(params, message)
    before = [run_transfer(circuits, coded, message, blocked) for blocked in (set(), {1}, {0, 2})]
    wrapped = onion.wrap_layers(coded.subflows[0], coded.subflow_size, circuits[0])

    derive = onion._derive_keystream

    def without_circuit_id(relay_id, circuit_id, depth, size):
        return derive(relay_id, "", depth, size)

    for cache in ("_keystream", "_kept_keystream"):
        maxsize = getattr(onion, cache).cache_info().maxsize
        monkeypatch.setattr(onion, cache, functools.lru_cache(maxsize=maxsize)(without_circuit_id))
    assert [run_transfer(circuits, coded, message, blocked) for blocked in (set(), {1}, {0, 2})] == before
    run_pipeline_checks([s], 20, 3)
    assert onion.wrap_layers(coded.subflows[0], coded.subflow_size, circuits[0]) != wrapped


def first_failing_trial(params: CodeParams, budget: int = 20) -> tuple[int, type, str] | None:
    """The 1-based index of the first of `budget` seeded trials that raises,
    over a pool of 25 unknown and 10 known bridges, with the type and
    message of what it raised."""
    s = CensorScenario(BridgePool.build(25, 10), params)
    rng = random.Random(0)
    for trial in range(1, budget + 1):
        try:
            run_trial(s, rng)
        except (ValueError, ConsistencyError) as exc:
            return trial, type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "params,trial", [(CodeParams(10, 6, 4), 2), (CodeParams(5, 3, 2), 12)], ids=["ctor-10-4", "ctor-5-2"]
)
def test_decode_plan_with_its_first_two_picks_swapped_fails_reassembly(monkeypatch, params, trial):
    """codec._decode_plan returns its first two picked positions swapped, so
    an original rebuilt by combination mixes the wrong columns; a copied
    original is untouched, so only a trial that blocks a data circuit sees
    it. The check that catches it is reassemble_message's length prefix:
    run_trial raises ValueError within a seeded budget of trials."""
    assert first_failing_trial(params) is None
    plan = codec._decode_plan

    def swapped(rows):
        found = plan(rows)
        if found is None:
            return None
        picks, sources, combines = found
        return (picks[1], picks[0], *picks[2:]), sources, combines

    monkeypatch.setattr(codec, "_decode_plan", swapped)
    assert first_failing_trial(params) == (trial, ValueError, "length prefix exceeds the decoded stream")


@pytest.mark.parametrize(
    "params,caught",
    [
        (CodeParams(10, 6, 4), (2, ConsistencyError, "pipeline interrupted=True but blocked_count=4 with r=4")),
        (CodeParams(5, 3, 2), (12, ConsistencyError, "pipeline interrupted=True but blocked_count=2 with r=2")),
        (CodeParams(4, 4, 0), None),
    ],
    ids=["ctor-10-4", "ctor-5-2", "mtor-4"],
)
def test_transmit_dropping_the_circuit_after_each_blocked_one_fails_the_rule(monkeypatch, params, caught):
    """onion.transmit also drops the circuit after each blocked one, so a
    trial with r blocked circuits loses more than r sub-flows. The check
    that catches it is run_trial's comparison with the blocked-count rule:
    it raises ConsistencyError within a seeded budget of trials. mtor:4
    never raises, because any blocked circuit already interrupts it."""
    assert first_failing_trial(params) is None
    transmit = onion.transmit

    def drops_the_next(circuits, coded, blocked=frozenset()):
        n = len(circuits)
        return transmit(circuits, coded, {*blocked, *(i + 1 for i in blocked if i + 1 < n)})

    monkeypatch.setattr(onion, "transmit", drops_the_next)
    assert first_failing_trial(params) == caught


@pytest.mark.parametrize(
    "params,caught",
    [
        (CodeParams(10, 6, 4), (1, ConsistencyError, "pipeline interrupted=True but blocked_count=2 with r=4")),
        (CodeParams(5, 3, 2), (1, ConsistencyError, "pipeline interrupted=True but blocked_count=1 with r=2")),
        (CodeParams(4, 3, 1), None),
    ],
    ids=["ctor-10-4", "ctor-5-2", "ctor-4-1"],
)
def test_parity_subflows_written_with_the_next_parity_row_fail_the_rule(monkeypatch, fresh_trial_cells, params, caught):
    """The sub-flow writer puts the next parity row's coefficients (the
    last takes the first's) in the header of each parity cell, over the
    payload its own row made. The wires parse to well-formed cells, so a trial
    that decodes through a parity cell rebuilds the wrong bytes; the check
    that catches it is run_trial's comparison with the blocked-count rule:
    it raises ConsistencyError within a seeded budget of trials. With one
    parity row the next row is its own, so ctor:4:1 is unchanged."""
    assert first_failing_trial(params) is None
    encode = onion.encode_subflows

    def next_parity_rows(generations, rows):
        k = len(rows[0])
        cell_size = 4 + 1 + 1 + k + CELL_SIZE
        wires = encode(generations, rows)
        for i, row in enumerate(rows[k + 1 :] + rows[k : k + 1]):
            wire = bytearray(wires[k + i])
            for start in range(6, len(wire), cell_size):
                wire[start : start + k] = row
            wires[k + i] = bytes(wire)
        return wires

    monkeypatch.setattr(onion, "encode_subflows", next_parity_rows)
    censor._trial_cells.cache_clear()
    assert first_failing_trial(params) == caught


def test_fast_path_counting_unknown_picks_is_uncaught_at_run_time(monkeypatch):
    """censor._fast_blocked_counts is handed size - known as its known count,
    so each trial counts the unknown bridges it picks. A ctor:10:4 campaign
    at 25 + 5 then reports p = 1 against the exact 0.00177, and nothing
    raises: the pipeline checks run on streams of their own and compare
    each trial with the rule, never the fast path's count with the exact
    tail (expected-uncaught until ROADMAP item 7)."""
    s = CensorScenario(BridgePool.build(25, 5), CodeParams(10, 6, 4))
    exact = p_block_lnc(25, 5, 10, 4)
    assert float(exact) == pytest.approx(0.00177, abs=1e-5)
    assert run_campaign(s, 20, 0).p_empirical == 0.0
    run_pipeline_checks([s], pipeline_checks(20, 0.05), 0)
    fast = censor._fast_blocked_counts

    def counts_unknown(rng, size, known, n, count):
        return fast(rng, size, size - known, n, count)

    monkeypatch.setattr(censor, "_fast_blocked_counts", counts_unknown)
    assert run_campaign(s, 20, 0).p_empirical == 1.0
    run_pipeline_checks([s], pipeline_checks(20, 0.05), 0)


def test_fast_path_sized_by_the_pool_tuple_raises_instead_of_spinning(monkeypatch):
    """censor._fast_blocked_counts is handed len(pool), the BridgePool's
    field count 2, as the pool size instead of len(pool.ordered). For
    ctor:4:1 at 25 + 5 the urn would then reach m = 0, where getrandbits(0)
    is always 0 and `while j >= m` never ends. The check that catches it is
    the pool-size rule, analytics.check_pool_size, called at the top of the
    urn in censor._fast_blocked_counts: the campaign raises at once. The mutant's draws are bounded, so a lost rule
    fails this test instead of hanging it."""
    s = CensorScenario(BridgePool.build(25, 5), CodeParams(4, 3, 1))
    assert run_campaign(s, 20, 0).trials == 20
    fast = censor._fast_blocked_counts

    def sized_by_the_tuple(rng, size, known, n, count):
        spins = itertools.count()

        def getrandbits(bits):
            if next(spins) == 10_000:
                pytest.fail("the urn redrew 10,000 times")
            return rng.getrandbits(bits)

        return fast(types.SimpleNamespace(getrandbits=getrandbits), len(s.pool), known, n, count)

    monkeypatch.setattr(censor, "_fast_blocked_counts", sized_by_the_tuple)
    with pytest.raises(ValueError, match="cannot select 4 bridges from a pool of 2"):
        run_campaign(s, 20, 0)


def test_fast_path_redrawing_only_above_m_is_uncaught_at_run_time(monkeypatch):
    """censor._fast_blocked_counts redraws while j > m instead of while
    j >= m, so a pick below m takes m + 1 values and j = m counts as one more
    unknown bridge: each pick is known with chance left / (m + 1), not
    left / m. Over 20,000 seeded trials of ctor:10:4 at 25 + 10 the estimate
    falls from within 1σ of the exact 0.0890 to about 5σ below it (the
    mutant's own law gives 0.0789, −5.0σ), and nothing raises: the
    pipeline checks compare each trial with the rule and never see the fast
    path's count (expected-uncaught until ROADMAP item 7's `check`, whose
    test of each histogram bin against blocked_counts is what will catch
    it)."""
    s = CensorScenario(BridgePool.build(25, 10), CodeParams(10, 6, 4))
    trials = 20_000
    exact = float(p_block_lnc(25, 10, 10, 4))
    assert exact == pytest.approx(0.0890, abs=1e-4)
    sigma = math.sqrt(exact * (1 - exact) / trials)

    def z_score() -> float:
        return (run_campaign(s, trials, 0).p_empirical - exact) / sigma

    assert abs(z_score()) < 1

    def redraws_only_above_m(rng, size, known, n, count):
        getrandbits = rng.getrandbits
        counts = [0] * (n + 1)
        for _ in range(count):
            left = known
            for m in range(size, size - n, -1):
                j = getrandbits(m.bit_length())
                while j > m:
                    j = getrandbits(m.bit_length())
                if j < left:
                    left -= 1
            counts[known - left] += 1
        return counts

    monkeypatch.setattr(censor, "_fast_blocked_counts", redraws_only_above_m)
    assert z_score() < -4.5


def from_wire_stream_mutant(check_k: bool, accept_k_zero: bool):
    """CodedCell.from_wire_stream with its compare of the later headers' k,
    or its k >= 1 test, taken out."""

    def from_wire_stream(cls, stream):
        stream = bytes(stream)
        if len(stream) < 6:
            raise ValueError(f"wire cell too short: {len(stream)} bytes")
        k = stream[5]
        if not (k or accept_k_zero):
            raise ValueError("coefficient vector must hold 1..255 bytes, got 0")
        layout = codec._wire_cell(k)
        count, rest = divmod(len(stream), layout.size)
        if rest or (check_k and stream[5 :: layout.size].count(k) != count):
            raise ValueError(f"wire of {len(stream)} bytes is not whole cells of k={k}, the k its first header gives")
        return [cls(gid, idx, row, payload) for gid, idx, _, row, payload in layout.iter_unpack(stream)]

    return classmethod(from_wire_stream)


def test_a_fast_path_trusting_the_first_k_misframes_a_mixed_stream(monkeypatch):
    """CodedCell.from_wire_stream drops its compare of the later headers' k
    and trusts the first. Every wire the encoder writes has one k, so every
    transfer and trial comes out as before; a hand-made stream whose cells
    of k = 2, 1 and 3 span three cells of k = 2, with the first row's bytes
    where each such row would lie, is unpacked as three k = 2 cells. The
    checks that catch it are in tests/test_codec.py:
    - TestBatchedParse::test_a_malformed_stream_raises_its_framing_error
      [later-k-zero], [later-k-wider] and [mixed-k], whose streams of whole
      cells of their first k now parse;
    - test_from_wire_round_trips_or_rejects, whose explicit example is that
      mixed stream."""
    cells = [codec.CodedCell(*fields) for fields in mixed_k_cells()]
    stream = b"".join(map(to_wire, cells))
    params = CodeParams(10, 6, 4)
    message = random.Random(16).randbytes(20_000)
    circuits = build_circuits([f"b{i}" for i in range(10)], random.Random(0))
    before = [run_transfer(circuits, CodedMessage(params, message), message, blocked) for blocked in (set(), {0, 5})]
    with pytest.raises(ValueError, match="is not whole cells of k=2"):
        codec.CodedCell.from_wire_stream(stream)

    monkeypatch.setattr(codec.CodedCell, "from_wire_stream", from_wire_stream_mutant(check_k=False, accept_k_zero=False))
    assert [run_transfer(circuits, CodedMessage(params, message), message, blocked) for blocked in (set(), {0, 5})] == before
    misframed = codec.CodedCell.from_wire_stream(stream)
    assert [len(cell.coefficients) for cell in misframed] == [2, 2, 2]
    assert misframed != cells


def test_a_fast_path_accepting_k_zero_parses_rows_of_nothing(monkeypatch):
    """CodedCell.from_wire_stream drops its k >= 1 test, so a stream of k = 0
    cells is unpacked into cells with empty rows instead of raising. Nothing
    the encoder writes has k = 0, so no transfer moves; the checks that
    catch it are in tests/test_codec.py:
    - TestWireFormat::test_from_wire_rejects_k_zero_short_and_long_cells,
      whose one k = 0 cell of exactly 518 bytes now parses;
    - TestWireFormat::test_a_cell_outside_the_field_ranges_never_crosses_the_wire[empty-row];
    - TestBatchedParse::test_a_malformed_stream_raises_its_framing_error
      [first-k-zero] and [every-k-zero];
    - test_from_wire_round_trips_or_rejects, whose explicit example is a
      whole 518-byte k = 0 cell."""
    zero_k = bytes(4) + b"\x01\x00" + bytes(CELL_SIZE)
    with pytest.raises(ValueError, match="got 0"):
        codec.CodedCell.from_wire_stream(zero_k * 2)

    monkeypatch.setattr(codec.CodedCell, "from_wire_stream", from_wire_stream_mutant(check_k=True, accept_k_zero=True))
    parsed = codec.CodedCell.from_wire_stream(zero_k * 2)
    assert [(cell.coefficients, len(cell.payload)) for cell in parsed] == [(b"", CELL_SIZE)] * 2
