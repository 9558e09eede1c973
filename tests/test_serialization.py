from graph_helpers import relabel, verify_minor_model

from planmod.graphs import make_grid


def test_grid_minor_witness_checker():
    # the checker role: an l-grid minor model whose branch sets all hit U
    host = make_grid(4, 4)
    pattern = make_grid(2, 2)
    pat = pattern.graph
    pat = relabel(pat, {v: f"g{v}" for v in pat.vertices})
    model = {"g0": {host.vertex_at(0, 0), host.vertex_at(0, 1)},
             "g1": {host.vertex_at(0, 2), host.vertex_at(0, 3)},
             "g2": {host.vertex_at(1, 0), host.vertex_at(1, 1)},
             "g3": {host.vertex_at(1, 2), host.vertex_at(1, 3)}}
    hits = {host.vertex_at(0, 0), host.vertex_at(0, 2),
            host.vertex_at(1, 0), host.vertex_at(1, 2)}
    assert verify_minor_model(host.graph, pat, model, must_intersect=hits)
    assert not verify_minor_model(host.graph, pat, model,
                                  must_intersect={host.vertex_at(3, 3)})
    broken = dict(model)
    broken["g0"] = {host.vertex_at(0, 0), host.vertex_at(2, 2)}  # disconnected
    assert not verify_minor_model(host.graph, pat, broken)

