import pytest
from hypothesis import given, settings, strategies as st

from mbsa.tfpg import (
    Tfpg,
    TfpgEdge,
    TfpgError,
    parse_tfpg,
    tfpg_from_xml,
    tfpg_to_dot,
    tfpg_to_xml,
    write_tfpg,
)

FULL_SCALE_TEXT = """modes P, S1, S2;
failure G1_Off; failure G2_Off; failure S1_Off; failure S2_Off;
or G1_DEAD; or G2_DEAD; or B1_LOW; or B2_LOW; or B1_DEAD; or B2_DEAD; or S1_NO; or S2_NO;
and Sys_DEAD;
edge G1_Off -> G1_DEAD [0,0] {*};
edge G1_DEAD -> B1_LOW [0,100] {P,S1};
edge B1_LOW -> B1_DEAD [5,10] {P,S1};
edge B1_DEAD -> S1_NO [0,1] {P,S1};
edge B1_DEAD -> S2_NO [0,1] {S1};
edge S1_Off -> S1_NO [0,0] {*};
edge S1_NO -> Sys_DEAD [0,1] {*};
edge G2_Off -> G2_DEAD [0,0] {*};
edge G2_DEAD -> B2_LOW [0,100] {P,S2};
edge B2_LOW -> B2_DEAD [5,10] {P,S2};
edge B2_DEAD -> S2_NO [0,1] {P,S2};
edge B2_DEAD -> S1_NO [0,1] {S2};
edge S2_Off -> S2_NO [0,0] {*};
edge S2_NO -> Sys_DEAD [0,1] {*};
"""


def full_scale_graph():
    return parse_tfpg(FULL_SCALE_TEXT)


def test_edge_with_all_modes():
    g = parse_tfpg("modes M; failure F; or D; edge F -> D [0,0] {*};")
    (e,) = g.edges
    assert e.tmin == 0 and e.tmax == 0 and e.modes is None


def test_edge_with_bounded_interval_and_modes():
    g = parse_tfpg("modes P, S1; failure F; or D; edge F -> D [0,100] {P,S1};")
    (e,) = g.edges
    assert (e.tmin, e.tmax) == (0, 100)
    assert e.modes == frozenset({"P", "S1"})


def test_infinite_upper_bound():
    g = parse_tfpg("modes M; failure F; or D; edge F -> D [3,inf] {M};")
    assert g.edges[0].tmax is None


def test_full_fixture_shape():
    g = full_scale_graph()
    assert len(g.nodes) == 13
    assert len(g.failures()) == 4
    assert sum(1 for k in g.nodes.values() if k == "or") == 8
    assert g.nodes["Sys_DEAD"] == "and"
    assert len(g.edges) == 14


def test_structural_errors():
    with pytest.raises(TfpgError):
        parse_tfpg("modes M; failure F; or D; edge D -> F [0,0] {*};")  # into a failure
    with pytest.raises(TfpgError):
        parse_tfpg("modes M; failure F; or D; edge F -> D [3,1] {*};")  # tmin > tmax
    with pytest.raises(TfpgError):
        parse_tfpg("modes M; failure F; or D; edge F -> D [0,0] {X};")  # unknown mode
    with pytest.raises(TfpgError):
        parse_tfpg("modes M; or D; or E; edge D -> D [0,0] {*};")  # self loop
    with pytest.raises(TfpgError):
        parse_tfpg("modes M; failure F; or D; edge F -> E [0,0] {*};")  # undeclared node


def test_repeated_mode_literal_is_reported_at_the_repetition():
    for text, where in (("modes P, S, P;", (1, 13)), ("modes P;\nfailure F;\nmodes S, P;", (3, 10))):
        with pytest.raises(TfpgError) as err:
            parse_tfpg(text, "g.tfpg")
        (diag,) = err.value.diagnostics
        assert (diag.message, diag.line, diag.col, diag.filename) == ("duplicate mode literal", *where, "g.tfpg")
    # a graph built in code is checked too
    with pytest.raises(TfpgError, match="duplicate mode literal"):
        Tfpg(("P", "P"), {}, ()).check()


def test_text_round_trip():
    g = full_scale_graph()
    canon = write_tfpg(g)
    g2 = parse_tfpg(canon)
    assert g2.modes == g.modes and g2.nodes == g.nodes and set(g2.edges) == set(g.edges)
    assert write_tfpg(g2) == canon  # canonical form is a fixpoint


def test_xml_round_trip():
    g = full_scale_graph()
    xml = tfpg_to_xml(g)
    g2 = tfpg_from_xml(xml)
    assert g2.modes == g.modes and g2.nodes == g.nodes and set(g2.edges) == set(g.edges)
    assert tfpg_to_xml(g2) == xml


def test_dot_conventions():
    dot = tfpg_to_dot(full_scale_graph())
    assert dot.count("style=dashed") == 4  # failures dashed
    assert dot.count("shape=circle") == 8  # OR discrepancies
    assert 'label="[0,100] {P,S1}"' in dot
    assert 'label="[0,0] {*}"' in dot


_ids = st.sampled_from([f"n{i}" for i in range(8)])


@st.composite
def _graphs(draw):
    modes = tuple(sorted(draw(st.sets(st.sampled_from(["M1", "M2", "M3"]), min_size=1, max_size=3))))
    names = sorted(draw(st.sets(_ids, min_size=2, max_size=6)))
    kinds = {}
    for i, n in enumerate(names):
        kinds[n] = draw(st.sampled_from(["failure", "or", "and"])) if i else "failure"
    discrepancies = [n for n, k in kinds.items() if k != "failure"]
    edges = []
    if discrepancies:
        n_edges = draw(st.integers(min_value=0, max_value=6))
        for _ in range(n_edges):
            dst = draw(st.sampled_from(discrepancies))
            src = draw(st.sampled_from([n for n in names if n != dst]))
            tmin = draw(st.integers(min_value=0, max_value=4))
            tmax = draw(st.one_of(st.none(), st.integers(min_value=tmin, max_value=8)))
            emodes = draw(st.one_of(
                st.none(), st.sets(st.sampled_from(modes), min_size=1).map(frozenset)))
            edges.append(TfpgEdge(src, dst, tmin, tmax, emodes))
    return Tfpg(modes, kinds, tuple(edges))


@given(_graphs())
@settings(max_examples=60, deadline=None)
def test_random_graph_round_trips(g):
    g.check()
    canon = write_tfpg(g)
    g2 = parse_tfpg(canon)
    assert write_tfpg(g2) == canon
    assert tfpg_to_xml(tfpg_from_xml(tfpg_to_xml(g))) == tfpg_to_xml(g)
