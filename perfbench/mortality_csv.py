"""Seeded synthetic mortality-rate table in the schema the CLI reads.

Columns are ``prefecture_id,year,sex,age,rate`` with ages ``0..109`` and
``110+``.  Log-rates follow a Lee-Carter shape per sex: an age profile, a
common period factor scaled by an age sensitivity, a persistent prefecture
level, a prefecture AR(1) deviation and age-dependent measurement noise.
About one percent of the rate fields past age 0 are left empty, which
exercises the loader's forward-fill.  Log-rates keep their nonzero mean:
nothing here centers the data.

The period factor is a stationary AR(1), not a random walk with drift.  With
a drift, whether AR-BIC follows the trend or reverts to the window mean
changes from seed to seed, and the mean MAFE of both methods ranged over
0.09-0.23 across five seeds; without it, 0.065-0.071.
"""

from __future__ import annotations

import numpy as np

N_PREF = 47
N_YEARS = 40
FIRST_YEAR = 1975
SEXES = ("F", "M")
AGE_LABELS = [str(a) for a in range(110)] + ["110+"]
MISSING_SHARE = 0.01


def _ar1(rng, shape, n, phi, sd) -> np.ndarray:
    """Stationary Gaussian AR(1) paths of length ``n``; time is the last axis."""
    out = np.empty(shape + (n,))
    out[..., 0] = sd / np.sqrt(1.0 - phi * phi) * rng.standard_normal(shape)
    for t in range(1, n):
        out[..., t] = phi * out[..., t - 1] + sd * rng.standard_normal(shape)
    return out


def log_rates(seed: int, n_pref: int = N_PREF, n_years: int = N_YEARS) -> np.ndarray:
    """(sex, prefecture, year, age) log-rates drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    ages = np.arange(len(AGE_LABELS), dtype=float)
    sex_shift = np.array([0.0, 0.35])[:, None]
    base = np.log(4e-4 * np.exp(-0.6 * ages) + 6e-5 * np.exp(0.088 * ages) + 1.5e-4)
    sensitivity = 0.6 + 0.6 * np.exp(-((ages - 35.0) / 30.0) ** 2)
    k = _ar1(rng, (2,), n_years, 0.9, 0.03)
    level = 0.06 * rng.standard_normal((2, n_pref, 1, 1))
    dev = _ar1(rng, (2, n_pref), n_years, 0.7, 0.02)
    noise_sd = 0.03 + 0.2 * np.exp(-ages / 8.0) + 0.05 * (ages / 110.0) ** 2
    noise = noise_sd * rng.standard_normal((2, n_pref, n_years, ages.size))
    return (
        (base[None, :] + sex_shift)[:, None, None, :]
        + k[:, None, :, None] * sensitivity
        + level
        + dev[..., None] * sensitivity
        + noise
    )


def write_csv(path, seed: int, n_pref: int = N_PREF, n_years: int = N_YEARS) -> None:
    """Write the table for ``seed`` to ``path``."""
    rates = np.exp(log_rates(seed, n_pref, n_years))
    missing = np.random.default_rng([seed, 1]).random(rates.shape) < MISSING_SHARE
    missing[..., 0] = False  # age 0 cannot be forward-filled
    text = np.char.mod("%.6g", rates)
    text[missing] = ""
    rows = ["prefecture_id,year,sex,age,rate"]
    for p in range(n_pref):
        pref = f"{p + 1:02d}"
        for t in range(n_years):
            head = f"{pref},{FIRST_YEAR + t},"
            for s, sex in enumerate(SEXES):
                prefix = head + sex + ","
                rows.extend(
                    prefix + age + "," + val for age, val in zip(AGE_LABELS, text[s, p, t])
                )
    with open(path, "w") as fh:
        fh.write("\n".join(rows))
        fh.write("\n")
