"""Dataclasses that hold arrays compare by identity, so `==` never asks an array for its truth."""

import numpy as np
import pytest

from sketch_infer.core_model import ModelTruth, fit_full
from sketch_infer.densities import complete_sketching_t_params, partial_sketching_law
from sketch_infer.estimators import PartialInputs, fit_complete
from sketch_infer.inference import Regime
from sketch_infer.sim_study import ResultTable, SimReport, paper_config
from sketch_infer.sketch_ops import SketchKind, SketchSpec, apply_sketch

from conftest import make_dataset


def _instances() -> dict:
    """One fresh instance of each array-holding dataclass, all from the same inputs."""
    data = make_dataset(40, 3, [1.0, -2.0, 0.5], seed=5)
    full = fit_full(data)
    sk = apply_sketch(data, SketchSpec(kind=SketchKind.GAUSSIAN, k=10, seed=2))
    cfg = paper_config(Regime.REPEATED_SKETCH, m=2)
    table = ResultTable("beta_s[0]", "gaussian", np.zeros(3))
    gram_inv = np.linalg.inv(data.X.T @ data.X)
    return {
        "DataSet": data,
        "FullFit": full,
        "ModelTruth": ModelTruth(beta_0=np.ones(3), sigma2=1.0),
        "MultivariateTParams": complete_sketching_t_params(full, gram_inv, 10, 3),
        "PartialSketchingLaw": partial_sketching_law(np.eye(3)[1], full, gram_inv, 10, 3),
        "SketchFit": fit_complete(sk),
        "PartialInputs": PartialInputs.of(data),
        "SketchedData": sk,
        "SimConfig": cfg,
        "ResultTable": table,
        "SimReport": SimReport(config=cfg, tables=[table], beta_F=full.beta_F,
                               runtime_seconds=0.0),
    }


@pytest.mark.parametrize("name", list(_instances()))
def test_equality_is_identity(name):
    a, b = _instances()[name], _instances()[name]
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and not a == b  # equal contents, distinct objects
    assert len({a, b, a}) == 2
