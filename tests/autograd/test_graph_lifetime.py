"""Graph lifetime: one post-training step holds only what backward reads.

The graph links Functions, not the tensors between them, and backward
consumes it.  These tests watch arrays, Functions and compiled plans
through weak references and never call ``gc.collect()``: what they
assert dead must be freed by reference counting alone, the moment the
last reader lets go.
"""

import itertools
import weakref

import numpy as np
import pytest

from repro import nn
from repro.autograd import Function, Tensor
from repro.core import BoundPostTrainer, PostTrainingConfig, ProtectionConfig, protect_model
from repro.core.fitrelu import FitReLU
from repro.data.loader import DataLoader
from repro.errors import GraphError
from repro.models.registry import build_model
from repro.nn.parameter import Parameter
from tests.conftest import IMAGE_SIZE, NUM_CLASSES


@pytest.fixture
def loader(train_dataset, normalize):
    """A private unshuffled loader: drawing from the session's shuffled
    one would move its order under every later test."""
    return DataLoader(train_dataset, batch_size=64, transform=normalize)


def _protected_lenet(loader):
    model = build_model(
        "lenet", num_classes=NUM_CLASSES, scale=1.0, image_size=IMAGE_SIZE, seed=0
    )
    batches = list(itertools.islice(loader, 2))
    protect_model(model, batches, ProtectionConfig(method="fitact"))
    return model


def _arrays_of(fn):
    """Every ndarray a Function keeps: saved, or stashed as an attribute."""
    values = [*fn.saved, *vars(fn).values()]
    return [value for value in values if isinstance(value, np.ndarray)]


@pytest.fixture
def recorded(monkeypatch):
    """Weak references to every op output array, every recorded
    Function and every array those Functions keep, from here on."""
    arrays, functions = [], []
    apply = Function.apply.__func__

    def recording(cls, *args, **kwargs):
        out = apply(cls, *args, **kwargs)
        arrays.append(weakref.ref(out.data))
        if out._fn is not None:
            functions.append(weakref.ref(out._fn))
            arrays.extend(weakref.ref(array) for array in _arrays_of(out._fn))
        return out

    monkeypatch.setattr(Function, "apply", classmethod(recording))
    return arrays, functions


def test_nothing_of_a_post_training_step_survives_backward(loader, recorded):
    model = _protected_lenet(loader)
    trainer = BoundPostTrainer(model, PostTrainingConfig())
    for param in model.parameters():
        param.requires_grad = any(param is bound for bound in trainer.bound_parameters)
    model.eval()
    inputs, targets = next(iter(loader))
    arrays, functions = recorded

    logits = model(inputs)
    zeta = trainer.config.zeta / trainer.total_bounds
    loss = trainer.loss_fn(logits, targets) + zeta * trainer._bound_penalty()
    assert len(functions) > 10
    loss.backward()

    held = {id(logits.data), id(loss.data), id(inputs.data), id(targets)}
    held.update(id(param.data) for param in model.parameters())
    alive = [ref() for ref in arrays]
    assert [a.shape for a in alive if a is not None and id(a) not in held] == []
    survivors = {id(ref()) for ref in functions if ref() is not None}
    assert survivors <= {id(loss._fn), id(logits._fn)}
    assert loss._fn.consumed and logits._fn.consumed
    assert all(bound.grad is not None for bound in trainer.bound_parameters)


def test_frozen_conv_output_dies_once_batchnorm_consumed_it(rng):
    first = FitReLU(np.ones((3, 6, 6), dtype=np.float32))
    conv = nn.Conv2d(3, 4, 3, padding=1, rng=0)
    norm = nn.BatchNorm2d(4)
    last = FitReLU(np.ones((4, 6, 6), dtype=np.float32))
    for param in [*conv.parameters(), *norm.parameters()]:
        param.requires_grad = False
    norm.eval()
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))

    hidden = conv(first(x))
    refs = [weakref.ref(hidden.data)]
    if hidden.data.base is not None:
        refs.append(weakref.ref(hidden.data.base))
    normalised = norm(hidden)
    del hidden
    assert [ref() is None for ref in refs] == [True] * len(refs)

    last(normalised).sum().backward()
    assert first.bound.grad is not None and np.any(first.bound.grad != 0)


def test_second_backward_through_a_consumed_graph_raises(rng):
    x = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
    hidden = x.relu()
    loss = (hidden * hidden).sum()
    loss.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphError, match="consumed"):
        loss.backward()
    # A new graph built on a consumed intermediate is refused too, and
    # the refusal comes before any gradient is accumulated.
    with pytest.raises(GraphError, match="consumed"):
        (hidden * 2.0).sum().backward()
    assert x.grad.tobytes() == grad.tobytes()


def test_bound_reached_on_two_paths_accumulates_in_a_fixed_order(rng):
    """λ feeds FitReLU and, twice, the ζ·Σλ² penalty: its gradient is
    the sum of three terms, and float addition is not associative."""
    bounds = rng.uniform(0.5, 2.0, (6, 10)).astype(np.float32)
    x = rng.uniform(0.1, 3.0, (8, 6, 10)).astype(np.float32)
    weights = Tensor(rng.standard_normal((8, 6, 10)).astype(np.float32))
    zeta = 0.37

    act = FitReLU(bounds)
    bound = act.bound
    loss = (act(Tensor(x)) * weights).sum() + zeta * (bound * bound).sum()
    loss.backward()

    # Each path on its own, through the same ops.
    task_only = FitReLU(bounds)
    (task_only(Tensor(x)) * weights).sum().backward()
    fit = task_only.bound.grad
    square = Parameter(bounds.copy())
    (zeta * (square * Tensor(bounds.copy())).sum()).backward()
    pen = square.grad

    # Reverse topological order runs the loss's first input's subtree
    # first: FitReLU hands λ its term, then the square its two.
    reference = (fit + pen) + pen
    assert bound.grad.tobytes() == reference.tobytes()
    assert ((pen + pen) + fit).tobytes() != reference.tobytes()


def test_no_compiled_plan_alive_between_post_training_epochs(loader, test_loader):
    import repro.eval  # noqa: F401  (installs the compiled clean-accuracy probe)

    model = _protected_lenet(loader)
    plans_alive = []

    class Watched:
        """The training loader, noting live plans before each step."""

        def __iter__(self):
            for batch in itertools.islice(loader, 2):
                plans = model.__dict__.get("_runtime_plans", [])
                plans_alive.append(sum(ref() is not None for ref in plans))
                yield batch

    config = PostTrainingConfig(epochs=2)
    report = BoundPostTrainer(model, config).run(Watched(), test_loader)
    assert report.epochs_run == 2
    assert plans_alive and not any(plans_alive)
    # The probe compiled a plan before the first epoch and after each.
    assert len(model.__dict__["_runtime_plans"]) == 3
