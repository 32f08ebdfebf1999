"""What the parser prints, as `siegel2` printed it with argparse building
the parser by hand, at COLUMNS=80: each help text (stdout, exit status 0)
and three usage errors (stderr, exit status 2)."""


# `siegel2 [COMMAND] --help`, keyed by the command ('' for the top level)
HELP = {
    '': """\
usage: siegel2 [-h] {build,verify,coeff,minmat,theta,sturm,dump} ...

exact computations in the ring of degree-2 Siegel modular forms

positional arguments:
  {build,verify,coeff,minmat,theta,sturm,dump}
    build               build and cache the generators
    verify              run the congruence verification
    coeff               print a(T) of an expression
    minmat              p-minimum matrix of an expression
    theta               dump the theta image of an expression
    sturm               finite vanishing criterion mod p
    dump                dump an expression in the cache text format

options:
  -h, --help            show this help message and exit
""",
    'build': """\
usage: siegel2 build [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]

options:
  -h, --help            show this help message and exit
  --trace-bound TRACE_BOUND
                        truncation: indices with trace <= N are tracked
                        (default 12, at most 40)
  --cache-dir CACHE_DIR
                        expansion cache directory (default $SIEGEL2_CACHE_DIR
                        or ./.siegel2-cache)
""",
    'verify': """\
usage: siegel2 verify [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                      [--prime {23,5}]

options:
  -h, --help            show this help message and exit
  --trace-bound TRACE_BOUND
                        truncation: indices with trace <= N are tracked
                        (default 12, at most 40)
  --cache-dir CACHE_DIR
                        expansion cache directory (default $SIEGEL2_CACHE_DIR
                        or ./.siegel2-cache)
  --prime {23,5}        23: the X35 congruence; 5: the theta(X6) = 4*X12
                        identity
""",
    'coeff': """\
usage: siegel2 coeff [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                     [--format {table,lines}] [--prime PRIME]
                     expr m n r

positional arguments:
  expr
  m
  n
  r

options:
  -h, --help            show this help message and exit
  --trace-bound TRACE_BOUND
                        truncation: indices with trace <= N are tracked
                        (default 12, at most 40)
  --cache-dir CACHE_DIR
                        expansion cache directory (default $SIEGEL2_CACHE_DIR
                        or ./.siegel2-cache)
  --format {table,lines}
                        human table or bare machine lines
  --prime PRIME         reduce mod this prime first
""",
    'minmat': """\
usage: siegel2 minmat [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                      [--format {table,lines}] --prime PRIME
                      expr

positional arguments:
  expr

options:
  -h, --help            show this help message and exit
  --trace-bound TRACE_BOUND
                        truncation: indices with trace <= N are tracked
                        (default 12, at most 40)
  --cache-dir CACHE_DIR
                        expansion cache directory (default $SIEGEL2_CACHE_DIR
                        or ./.siegel2-cache)
  --format {table,lines}
                        human table or bare machine lines
  --prime PRIME
""",
    'theta': """\
usage: siegel2 theta [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                     [--prime PRIME]
                     expr

positional arguments:
  expr

options:
  -h, --help            show this help message and exit
  --trace-bound TRACE_BOUND
                        truncation: indices with trace <= N are tracked
                        (default 12, at most 40)
  --cache-dir CACHE_DIR
                        expansion cache directory (default $SIEGEL2_CACHE_DIR
                        or ./.siegel2-cache)
  --prime PRIME
""",
    'sturm': """\
usage: siegel2 sturm [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                     --prime PRIME
                     expr

positional arguments:
  expr

options:
  -h, --help            show this help message and exit
  --trace-bound TRACE_BOUND
                        truncation: indices with trace <= N are tracked
                        (default 12, at most 40)
  --cache-dir CACHE_DIR
                        expansion cache directory (default $SIEGEL2_CACHE_DIR
                        or ./.siegel2-cache)
  --prime PRIME
""",
    'dump': """\
usage: siegel2 dump [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                    [--prime PRIME]
                    expr

positional arguments:
  expr

options:
  -h, --help            show this help message and exit
  --trace-bound TRACE_BOUND
                        truncation: indices with trace <= N are tracked
                        (default 12, at most 40)
  --cache-dir CACHE_DIR
                        expansion cache directory (default $SIEGEL2_CACHE_DIR
                        or ./.siegel2-cache)
  --prime PRIME
""",
}

# argv -> stderr
USAGE_ERRORS = {
    ('verify', '--prime', '7'): """\
usage: siegel2 verify [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                      [--prime {23,5}]
siegel2 verify: error: argument --prime: invalid choice: 7 (choose from 23, 5)
""",
    ('coeff', 'X4', '1', '0'): """\
usage: siegel2 coeff [-h] [--trace-bound TRACE_BOUND] [--cache-dir CACHE_DIR]
                     [--format {table,lines}] [--prime PRIME]
                     expr m n r
siegel2 coeff: error: the following arguments are required: r
""",
    ('sturm', 'X12', '--prime', '5', '--weight', '2'): """\
usage: siegel2 [-h] {build,verify,coeff,minmat,theta,sturm,dump} ...
siegel2: error: unrecognized arguments: --weight 2
""",
}
