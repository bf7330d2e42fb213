"""Mean age at childbearing (MAC) from advertising-audience counts.

The library turns platform audience snapshots into fertility schedules and
MAC estimates, validates them against reference demographic tables
(Spearman, MAPE, leave-one-out cross-validation), fits a linear calibration
of platform MAC to reference MAC, and predicts MAC for countries where no
reference exists. The `admac` CLI chains those stages over plain CSV/JSON
artifacts.
"""

__version__ = "0.1.0"
