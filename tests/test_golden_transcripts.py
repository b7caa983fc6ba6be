"""Whole transcripts of the `formula-dense` benchmark's semi-ladder and
ladder instances, plus delta(3,30) on the 300-cycle (154 rounds), against
``golden_transcripts.json``.  The file was recorded with the candidate
oracle that searched every call from the first tuple and built a row for
every class; the decision, rounds, oracle calls, candidates and witnesses
must stay exactly those."""
import json
from pathlib import Path

import pytest

from progexplore import (ImplicitBipartite, build_delta, build_eta, generate,
                         ladder_solve, semi_ladder_solve)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_transcripts.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["label"] for c in GOLDEN])
def test_transcript_equals_the_recorded_one(case):
    g = generate(case["family"], case["params"])
    kind, k, r = case["formula"]
    f = (build_delta if kind == "delta" else build_eta)(k, r)
    ib = ImplicitBipartite(g, f)
    p = case["p"]
    d = semi_ladder_solve(ib) if p is None else ladder_solve(ib, p)
    t = d.transcript
    witnesses = [[list(b) for b in w] if p else list(w) for w in t.witnesses]
    assert (d.kind, t.rounds, t.oracle_calls) == \
        (case["decision"], case["rounds"], case["oracle_calls"])
    assert [list(a) for a in t.candidates] == case["candidates"]
    assert witnesses == case["witnesses"]
