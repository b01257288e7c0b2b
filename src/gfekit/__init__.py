"""gfekit: computational toolkit for the generalized Fermat equation
x^r + y^s = z^t.

Submodules:
  arith       exact factored-integer algebra (radicals, coprime/k-full parts,
              integer roots, certified factorization)
  linlog      certified comparison of rational combinations of prime logs
  freycurves  the four Frey-Hellegouarch curve families and their invariants
  ramification  ramification datasets, the log-volume table, a2 tables, a1/a4 formula
  bounds      bound configurations, the inequality chain, interval elimination
  structure   decomposition caps, classification tables, exponent sieves
  search      candidate enumeration, exact box checks, the small-z scan
  campaign    sharded, checkpointed campaign plans and reports
  catalog     chi classification, known solutions, signature counters
  errors      the typed errors of every layer (imports nothing)
  cli         batch front-end; each command imports only the layers it runs
"""

__version__ = "0.1.0"
