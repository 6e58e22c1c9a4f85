"""The tracer counts calls and self time, and puts the program back as it was."""

import pytest

import tracing
import urbanav.autodiff as ad
import urbanav.executor as executor
import urbanav.model as model
from urbanav.executor import Action, Pose, execute_lenient
from urbanav.worldmap import GridMap, Street, TileCoord


@pytest.fixture
def straight():
    tiles = tuple(TileCoord(c, 2) for c in range(5))
    return GridMap("straight", 5, 5, streets=[Street(id=1, tiles=tiles)])


def test_install_wraps_every_reference_and_uninstall_restores(straight):
    originals = (executor.step, model.step, model.compute_world, ad.Tensor.__init__,
                 model.NavigationModel.encode)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert executor.step is not originals[0]
        assert model.step is executor.step  # the name imported by another module too
        assert model.compute_world is not originals[2]
        ad.constant([1.0, 2.0])
        W, E = Action.WALK, Action.END
        execute_lenient(straight, Pose(1, 2, 1), [W, W, W, E])  # the third WALK fails
    finally:
        tracer.uninstall()
    assert (executor.step, model.step, model.compute_world, ad.Tensor.__init__,
            model.NavigationModel.encode) == originals
    assert tracer.calls("setup", "executor.step") == 3
    assert tracer.errors("setup", "executor.step") == 1
    assert tracer.tensors == 1


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.phase = "measure"
    child = tracer._wrap("child", lambda: sum(range(20000)))

    def parent_body():
        child()
        child()
        return sum(range(20000))

    parent = tracer._wrap("parent", parent_body)
    parent()
    assert tracer.calls("measure", "child") == 2
    assert tracer.edge_calls("measure", "parent", "child") == 2
    inside_children = tracer.edge_total_s("measure", "parent", "child")
    parent_self = tracer.mean_self_s("measure", "parent")
    assert parent_self == pytest.approx(tracer.total_s("measure", "parent") - inside_children)
    assert 0.0 < parent_self < tracer.total_s("measure", "parent")
    request_ids = {span[2] for span in tracer.spans}
    assert len(request_ids) == 1  # all three spans belong to one top-level call
