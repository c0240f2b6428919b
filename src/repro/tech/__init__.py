"""Technology modeling: ITRS devices, Ho wire projections, memory cells.

Importing this package registers the built-in memory technologies: the
paper's triad (``repro.tech.cells``) and the STT-RAM extensibility proof
(``repro.tech.stt_ram``).  Registration happens at import time so every
process -- including optimizer worker processes that unpickle specs --
resolves the same :class:`CellTech` handles.
"""

from repro.tech import stt_ram as _stt_ram  # noqa: F401  (registers stt-ram)
