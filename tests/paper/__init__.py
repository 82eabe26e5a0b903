"""Paper-conformance suite: one module per artefact of "Hyper-Programming
in Java" (Table 1, Figures 5/7/8/9/11/12, Sections 1 and 7).  Plain
pytest, part of tier-1; timings live in ``bench/``."""
