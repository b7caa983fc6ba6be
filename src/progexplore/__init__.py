"""Progressive-exploration solvers for distance-based domination and
independence problems, with the exact small-scale machinery to verify them.
"""

from .bench import (CSV_COLUMNS, TIMING_COLUMNS, BenchRecord, records_to_csv,
                    run_bench)
from .bipartite import (COMATCHING, LADDER, OBSTRUCTION_KINDS, SEMILADDER,
                        BipartiteGraph, HellyResult, Obstruction,
                        check_p_helly, coverage_bruteforce, find_monochromatic,
                        index_of, materialize, parse_bipartite, ramsey_bound,
                        serialize_bipartite, tuple_index)
from .cli import cli_main
from .errors import (ContractViolationError, InputError,
                     InternalInvariantError, ParseError, ProgExploreError,
                     ResourceBudgetError, SplitterBudgetError)
from .formulas import (And, Atom, DistanceFormula, DistanceMatrix, Not, Or,
                       build_delta, build_eta, evaluate, parse_formula,
                       serialize_formula)
from .graph import (GENERATOR_FAMILIES, INF, Graph, ball, ball_distances,
                    bfs_capped, generate, graph_power, half_square, has_ktt,
                    parse_dimacs, parse_graph, serialize_graph)
from .oracles import (ImplicitBipartite, candidate_oracle,
                      semiladder_extension_oracle, strong_witness_oracle,
                      weak_witness_oracle)
from .profiles import (ComplexityMeasurement, DistanceProfile, ProfileTable,
                       build_profile_table, measure_profile_complexity,
                       profile_of_vertex)
from .solvers import (DEFAULT_STRATEGY, EXISTS, NO_SOLUTION, NOT_EXISTS,
                      SOLUTION, STRATEGIES, Decision, Dichotomy,
                      RunTranscript, brute_force_dominating,
                      brute_force_independent, compute_precore, coverage_core,
                      greedy_dichotomy, independent_set_solve, ladder_solve,
                      resolve_strategy, semi_ladder_solve,
                      splitter_game_round)

__all__ = [name for name in dir() if not name.startswith("_")]
