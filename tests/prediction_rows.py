"""Predictions as rows, for tests that write them out by hand: a
``Prediction`` per example, and ``columns`` to turn a list of them into the
``PredictionColumns`` the metrics take."""

from typing import NamedTuple

import numpy as np

from starctr.metrics import PredictionColumns


class Prediction(NamedTuple):
    user: int
    p: int
    yhat: float
    y: int


def columns(rows: list[Prediction]) -> PredictionColumns:
    user, p, yhat, y = zip(*rows) if rows else ((), (), (), ())
    return PredictionColumns(np.array(user, dtype=np.int64),
                             np.array(p, dtype=np.int64),
                             np.array(yhat, dtype=np.float64),
                             np.array(y, dtype=np.int64))
