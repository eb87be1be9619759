"""endowlab: a desk scale laboratory for endowment based preservation.

Finite forcing posets with exact semantics, endowment family verification,
cover name approximation and refinement, finitized selection principles,
and an end to end preservation runner with replayable certificates.
"""
