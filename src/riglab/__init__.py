"""riglab: simulate sparse random intersection graphs and verify them
against closed-form degree and clustering laws.

Two graph kinds share one bipartite structure of n random attribute
sets over m attributes: the actor graph links sets overlapping in at
least s attributes; the attribute graph links attribute pairs covered
by at least s sets.  ``theory`` holds the limit laws, ``oracle`` the
exact finite-size ground truth, ``sampler``/``stats`` the simulation
side, and ``cli`` the scenario runner that compares them.
"""

__version__ = "0.1.0"
