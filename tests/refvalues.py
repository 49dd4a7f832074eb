"""Frozen reference values shared across test modules.

The MC oracle constants below were produced before the library was built, by
a standalone script that simulated plain killed Brownian motion on the
clock tau(t) = (e^{2 gamma t} - 1)/(2 gamma) with N = 1e6 paths per grid and
Richardson extrapolation in sqrt(step) over grids of 4000 and 16000 steps
(seed 20260809).  They pin the survival scale independently of any code in
the package.
"""

import math

# -- pre-build MC oracle: P(T_0 > 1) for gamma = 1, a = 1 --------------------
SURVIVAL_ORACLE_G1_A1_T1 = 0.423333
SURVIVAL_ORACLE_STDERR = 0.001106

# -- frozen arithmetic constants (evaluated independently) -------------------
TAU_G1_T1 = 3.194528049465325          # (e^2 - 1) / 2
TAU_GM05_T2 = 0.8646647167633873       # 1 - e^-2
OU_MEAN_G1_A1_T1 = 0.36787944117144233     # e^-1
OU_VAR_G1_A1_T1 = 0.43233235838169365      # (1 - e^-2) / 2
RADIAL_MSQ_G1_A1_T1 = 1.4323323583816938   # e^-2 + 3 (1 - e^-2) / 2
MARTINGALE_HALF_E = 1.3591409142295225     # 0.5 * e
INVERSE_WEIGHT_R2_G1_T1 = 0.18393972058572117  # 0.5 * e^-1
STD_NORMAL_AT_0 = 0.3989422804014327
STD_NORMAL_AT_1 = 0.24197072451914337


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def brownian_clock(gamma: float, t: float) -> float:
    """Independent evaluation of the clock, for cross-checks."""
    if gamma == 0.0:
        return t
    return math.expm1(2.0 * gamma * t) / (2.0 * gamma)


def reflection_survival(gamma: float, a: float, t: float) -> float:
    """2 Phi(a / sqrt(tau)) - 1 via the plain reflection argument."""
    tau = brownian_clock(gamma, t)
    return 2.0 * normal_cdf(a / math.sqrt(tau)) - 1.0


def killed_tail_probability(gamma: float, a: float, t: float, x: float) -> float:
    """P(X_t > x, T_0 > t): integral of the reflected Gaussian pair above
    x e^{gamma t}, written with normal CDFs only."""
    tau = brownian_clock(gamma, t)
    y = x * math.exp(gamma * t)
    s = math.sqrt(tau)
    return normal_cdf((a - y) / s) - normal_cdf(-(y + a) / s)


def killed_conditional_cdf(gamma: float, a: float, t: float, x: float) -> float:
    """P(X_t <= x | T_0 > t), from the tail formula above."""
    surv = reflection_survival(gamma, a, t)
    return 1.0 - killed_tail_probability(gamma, a, t, x) / surv


# -- run_suite(SuiteConfig(n_paths=20_000, seed=96)) as computed at commit 304c11e,
#    when every estimator reduced its whole concatenated sample with math.fsum;
#    the three euler-radial rows were re-pinned after commit e6fc482, when the
#    radial Euler step became drift-implicit, and the weight-unit-mass,
#    transport-agreement, conditioning-gap and killed-semigroup rows after
#    commit 5e5d2fb, when each of those families began to share one draw per
#    law on its own stream; the rows that read the exact radial stream
#    (transport-agreement, conditioning-gap, killed-semigroup,
#    local-martingale-mc, euler-radial-ks) after commit 1b3f768, when that
#    draw became one normal and one exponential per value, and with them the
#    rounding-level htransform-residual[t=0.5], when the killed density began
#    to apply e^{gamma t} / sqrt(2 pi tau) as one factor:
#    (check, status, value, target, gap) ------------------------------------
SUITE_N20000_SEED96 = (
    ("martingale-mean[t=0.5]", "pass", 0.9949440158465359, 1.0, 0.7608089725286236),
    ("martingale-mean[t=1]", "pass", 1.0049695955012623, 1.0, 0.39300859311983904),
    ("martingale-mean[t=2]", "pass", 0.9971551478051047, 1.0, 0.07744750014485555),
    ("weight-unit-mass[t=0.5]", "pass", 0.9996429593306523, 1.0, 0.05870163183772127),
    ("weight-unit-mass[t=1]", "pass", 0.9834561753920094, 1.0, 1.6792407967739238),
    ("weight-unit-mass[t=2]", "pass", 1.008143912122082, 1.0, 0.4225059527356025),
    ("transport-agreement[one]", "pass", 0.42557605261034914, 0.4179, 1.856346357369576),
    ("transport-agreement[1(x>1)]", "pass", 0.14886356677933962, 0.1434, 2.046169463209553),
    ("transport-agreement[1(x<0.5)]", "pass", 0.09847969223700882, 0.09705, 0.4266791061935074),
    ("transport-agreement[min(x^1,10)]", "pass", 0.36787944117144233, 0.36167044737571424, 1.697053186022983),
    ("conditioning-gap[one]", "pass", 1.1521303016770421, 1.1534737279557685, 0.15906958361935433),
    ("conditioning-gap[1(x>1)]", "pass", 0.4061984187758599, 0.41044269419858903, 0.6115191231072791),
    ("conditioning-gap[1(x<0.5)]", "pass", 0.25902695564816625, 0.2543242251573287, 0.5378851233107086),
    ("conditioning-gap[min(x^1,10)]", "pass", 1.0, 1.0018672036890963, 0.24172589007003514),
    ("killed-semigroup[one]", "pass", 0.42557605261034914, 0.4241764417797157, 0.6300395752450456),
    ("killed-semigroup[1(x>1)]", "pass", 0.14886356677933962, 0.1494366526861181, 0.576690239551024),
    ("killed-semigroup[1(x<0.5)]", "pass", 0.09847969223700882, 0.09723219929053561, 0.4767922984824066),
    ("killed-semigroup[min(x^1,10)]", "pass", 0.36787944117144233, 0.3678794411714422, 1.1102230246251565e-05),
    ("killed-density-mass[t=0.5]", "pass", 0.7193528563918147, 0.7193528563918145, 2.220446049250313e-16),
    ("radial-density-mass[t=0.5]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=0.5]", "pass", 1.3869967027288071e-14, 0.0, 1.3869967027288071e-14),
    ("killed-density-mass[t=1]", "pass", 0.4241764417797156, 0.42417644177971575, 1.6653345369377348e-16),
    ("radial-density-mass[t=1]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=1]", "pass", 2.1401504431214863e-14, 0.0, 2.1401504431214863e-14),
    ("killed-density-mass[t=2]", "pass", 0.15317431284600863, 0.15317431284600858, 5.551115123125783e-17),
    ("radial-density-mass[t=2]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=2]", "pass", 1.4193645148510794e-14, 0.0, 1.4193645148510794e-14),
    ("local-martingale-monotone", "pass", 0.7193528563918145, 1.0, -0.2710021289337072),
    ("local-martingale-mc[t=0.5]", "pass", 0.7202136430303719, 0.7193528563918145, 0.22326407207567314),
    ("local-martingale-mc[t=1]", "pass", 0.42391466516640647, 0.42417644177971575, 0.12006679999225292),
    ("local-martingale-mc[t=2]", "pass", 0.1526109677550829, 0.15317431284600858, 0.7514619539049416),
    ("survival-exact-scheme", "pass", 0.42535, 0.42417644177971575, 0.3356864845242448),
    ("euler-radial-ks", "pass", 0.008050000000000002, 0.0, 0.008050000000000002),
    ("euler-radial-msq", "pass", 1.426819668062648, 1.4323323583816938, 0.005512690319045888),
    ("euler-radial-tail", "pass", 3.242925772734524, 5.725485107077875, 3.242925772734524),
)


# -- run_suite(SuiteConfig(n_paths=BLOCK_SIZE + 4_464, seed=98)), i.e. 70,000
#    paths in two blocks per estimator, as computed at commit 2fe095a, with
#    the euler-radial and family rows re-pinned as above: (check, status,
#    value, target, gap) -----------------------------------------------------
SUITE_N70000_SEED98 = (
    ("martingale-mean[t=0.5]", "pass", 0.9997814991469799, 1.0, 0.06242006809559148),
    ("martingale-mean[t=1]", "pass", 0.9984532283753169, 1.0, 0.22870872633692244),
    ("martingale-mean[t=2]", "pass", 0.9794129667707748, 1.0, 1.0537987820787573),
    ("weight-unit-mass[t=0.5]", "pass", 0.9960172660151105, 1.0, 1.220687209820892),
    ("weight-unit-mass[t=1]", "pass", 0.9922746267674216, 1.0, 1.4496478150998342),
    ("weight-unit-mass[t=2]", "pass", 0.992101109553289, 1.0, 0.7754914341913647),
    ("transport-agreement[one]", "pass", 0.42202364616322324, 0.4224142857142857, 0.17744201871496443),
    ("transport-agreement[1(x>1)]", "pass", 0.1505325633060191, 0.1475857142857143, 2.044054940282301),
    ("transport-agreement[1(x<0.5)]", "pass", 0.09591131263303783, 0.09844285714285714, 1.4255733533659518),
    ("transport-agreement[min(x^1,10)]", "pass", 0.36787944117144233, 0.3640270729649371, 1.9692705387399478),
    ("conditioning-gap[one]", "pass", 1.1525406905310127, 1.1527848553867892, 0.05282035292665143),
    ("conditioning-gap[1(x>1)]", "pass", 0.4045288688665413, 0.4066200745187597, 0.5638678024552357),
    ("conditioning-gap[1(x<0.5)]", "pass", 0.2623531042914878, 0.2614069661936389, 0.20039615205973746),
    ("conditioning-gap[min(x^1,10)]", "pass", 1.0, 0.9987902060551941, 0.287669459420654),
    ("killed-semigroup[one]", "pass", 0.42202364616322324, 0.4241764417797157, 1.8452332251151706),
    ("killed-semigroup[1(x>1)]", "pass", 0.1505325633060191, 0.1494366526861181, 2.066729407150507),
    ("killed-semigroup[1(x<0.5)]", "pass", 0.09591131263303783, 0.09723219929053561, 0.9619260399233955),
    ("killed-semigroup[min(x^1,10)]", "pass", 0.36787944117144233, 0.3678794411714422, 1.1102230246251565e-05),
    ("killed-density-mass[t=0.5]", "pass", 0.7193528563918147, 0.7193528563918145, 2.220446049250313e-16),
    ("radial-density-mass[t=0.5]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=0.5]", "pass", 1.3869967027288071e-14, 0.0, 1.3869967027288071e-14),
    ("killed-density-mass[t=1]", "pass", 0.4241764417797156, 0.42417644177971575, 1.6653345369377348e-16),
    ("radial-density-mass[t=1]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=1]", "pass", 2.1401504431214863e-14, 0.0, 2.1401504431214863e-14),
    ("killed-density-mass[t=2]", "pass", 0.15317431284600863, 0.15317431284600858, 5.551115123125783e-17),
    ("radial-density-mass[t=2]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=2]", "pass", 1.4193645148510794e-14, 0.0, 1.4193645148510794e-14),
    ("local-martingale-monotone", "pass", 0.7193528563918145, 1.0, -0.2710021289337072),
    ("local-martingale-mc[t=0.5]", "pass", 0.7212327144681127, 0.7193528563918145, 0.9469323033986318),
    ("local-martingale-mc[t=1]", "pass", 0.4238931209105533, 0.42417644177971575, 0.2430005815004008),
    ("local-martingale-mc[t=2]", "pass", 0.15346747452022844, 0.15317431284600858, 0.6611380356061722),
    ("survival-exact-scheme", "pass", 0.4250857142857143, 0.42417644177971575, 0.4866314488907832),
    ("euler-radial-ks", "pass", 0.004500000000000004, 0.0, 0.004500000000000004),
    ("euler-radial-msq", "pass", 1.435916494174149, 1.4323323583816938, 0.00358413579245509),
    ("euler-radial-tail", "pass", 3.5549607916871295, 5.812130239385148, 3.5549607916871295),
)

# -- SHA-256 of the same report, as computed at commit 8e187fe and re-pinned
#    after commit 1b3f768 for the 2-variate radial draw and the one-factor
#    killed density: its to_csv() and its to_json() with "meta" dropped,
#    re-dumped with sort_keys=True and no indent.  Unlike the rows above,
#    these cover every byte, the seed, reason and threshold fields included -
SUITE_N70000_SEED98_SHA256 = {
    "csv": "f460a8359db9063ca995b3fc5cecfd4f719f7a74ca403b01b6cceb77ec8314bd",
    "json": "30c1ba47bdd054d877d37414f1b9c3e6b8ac3fc151e08e1c7397b37b569b3f56",
}

# -- printed per-t summary of `ouht simulate --process P --scheme S --gamma 1
#    --a 1 --t 0.5 --t 1 --paths 65537 --seed 12` (plus --dt 0.01 for euler),
#    as computed at commit 2fe095a; the radial-exact t=1 line was re-pinned
#    when radial_exact began drawing t=1 from each path's t=0.5 value, the
#    radial-euler lines after commit e6fc482, for the drift-implicit step, and
#    the radial-exact lines after commit 1b3f768, for the 2-variate draw -----
SIMULATE_N65537_SEED12 = {
    ("ou-killed", "exact"): (
        "  t=0.5: mean=0.607833 stderr=0.00205 survival=0.718571",
        "  t=1: mean=0.370397 stderr=0.00204 survival=0.426263",
    ),
    ("ou-killed", "euler"): (
        "  t=0.5: mean=0.616995 stderr=0.00203 survival=0.752689",
        "  t=1: mean=0.385884 stderr=0.00204 survival=0.461754",
    ),
    ("radial", "exact"): (
        "  t=0.5: mean=1.06317 stderr=0.0017 survival=1",
        "  t=1: mean=1.10408 stderr=0.00181 survival=1",
    ),
    ("radial", "euler"): (
        "  t=0.5: mean=1.0602 stderr=0.0017 survival=1",
        "  t=1: mean=1.10011 stderr=0.00181 survival=1",
    ),
}

# -- SHA-256 of the files written by `ouht simulate --process P --scheme S
#    --gamma 1 --a 1 --t 0.5 --t 1 --paths 65537 --seed 12 --format F`
#    (plus --dt 0.01 for euler; radial exact with --t 0.5 only), as computed
#    at commit cc2e725, the radial-euler ones after commit e6fc482 for the
#    drift-implicit step, the radial-exact ones after commit 1b3f768 for the
#    2-variate draw: (process, scheme, format) -> digest --------------------
SIMULATE_SHA256_N65537_SEED12 = {
    ("ou-killed", "exact", "csv"): "fde8c5dd7a246e2b60a26e23352a33bd12e8f26c70a5fb0a40af366854ff8d55",
    ("ou-killed", "exact", "json"): "8ab7e4be3183f73828925fdf169cdfee4268a8813458f19c942afe084e22e235",
    ("ou-killed", "euler", "csv"): "e6a92299f690934793de0f255bd533fd68ef7a0e8416236d6bd7949fa84a3a70",
    ("ou-killed", "euler", "json"): "c09175e0a90f65c55b3c80a4bdaa1f2628a7a5fea516b874370700525818adc4",
    ("radial", "euler", "csv"): "b461d093c67363e1ddc69e8bbd914ec26177db24dff1ffb8df1773a23b30513e",
    ("radial", "euler", "json"): "8b2e2bdc0018d547f845a8d5828fd0a41af36457900dd078452a77745e303422",
    ("radial", "exact", "csv"): "102a86c062d3ac9ec0fd5a95946699cfcf54c728e3923b9b4d9b73370e7eed18",
    ("radial", "exact", "json"): "251e4b017516fc7e2a0b3e4db0cd0a74e1107551207020d00d50c44003b735b4",
}

# -- euler_radial(ProcessParams(0.5, 0.05), TimeGrid.from_times((0.5, 1)),
#    SchemeConfig(dt=0.05), stream(4, 0), 4096) by the drift-implicit step,
#    as computed after commit e6fc482: SHA-256 of values.tobytes() -----------
EULER_RADIAL_G05_A005_DT005 = "4f1ac3a87b802d54d929ad31d6677af8be732c63aadf5aff6b880a2dfa1d3939"

# -- SHA-256 of values.tobytes() for simulate_killed_ou_exact(P, TimeGrid.uniform(2.0,
#    16), stream(220, 0), 4096) and euler_ou(P, TimeGrid.uniform(2.0, 16),
#    SchemeConfig(dt=0.01), stream(221, 0), 4096), P = ProcessParams(1, 1), as
#    computed at commit 63be3de: scheme -> digest --------------------------
KILLED_SHA256_G1_A1_T2_N16 = {
    "exact": "f9798942df34e74bbfc250dfd9cb5996eb11d41c0fcd78852dec40a562311630",
    "euler": "5c0209f9b0c8d156ae63946adeac4360dddd917bf204650f549db0cd52008c1a",
}

# -- single-fault `ouht` command lines, run in a fresh directory holding
#    d.conf (when given), with the exit code and the exact stderr each gave
#    at commit 7752d6f: name -> (argv, d.conf text or None, exit, stderr) ----
_SIM = ["simulate", "--process", "radial", "--gamma", "1", "--a", "1", "--t", "1",
        "--paths", "10", "--workers", "1"]
_DENSITY = ["density", "--gamma", "1", "--a", "1", "--t", "1", "--x-min", "0.1", "--x-max", "2",
            "--x-points", "5"]
_ENOENT = "[Errno 2] No such file or directory"
CLI_SINGLE_FAULTS = {
    "missing-process": (["simulate", "--gamma", "1", "--a", "1", "--t", "1"], None, 2,
                        "error: missing required parameter: process\n"),
    "missing-gamma": (["simulate", "--process", "radial", "--a", "1", "--t", "1"], None, 2,
                      "error: missing required parameter: gamma\n"),
    "missing-a": (["density", "--gamma", "1", "--t", "1", "--x-min", "0.1", "--x-max", "2"], None, 2,
                  "error: missing required parameter: a\n"),
    "missing-t": (["simulate", "--process", "radial", "--gamma", "1", "--a", "1"], None, 2,
                  "error: missing required parameter: t\n"),
    "missing-dt": (_SIM + ["--scheme", "euler"], None, 2,
                   "error: missing required parameter: dt\n"),
    "missing-x-min": (["density", "--gamma", "1", "--a", "1", "--t", "1", "--x-max", "2"], None, 2,
                      "error: missing required parameter: x-min\n"),
    "missing-x-max": (["density", "--gamma", "1", "--a", "1", "--t", "1", "--x-min", "0.1"], None, 2,
                      "error: missing required parameter: x-max\n"),
    "bad-gamma": (["local-martingale", "--gamma", "nan"], None, 2,
                  "error: gamma: gamma must be finite, got nan\n"),
    "bad-a": (_SIM + ["--a", "-1"], None, 2,
              "error: a: a must be finite and > 0, got -1.0\n"),
    "bad-t": (["verify", "--t", "2", "--t", "1"], None, 2,
              "error: t: times must be positive, finite and strictly ascending\n"),
    # re-pinned when the dt check moved to SchemeConfig, whose message names dt
    "bad-dt": (["verify", "--dt", "-0.5"], None, 2,
               "error: dt: dt must be finite and > 0, got -0.5\n"),
    "bad-x-min": (_DENSITY + ["--x-min", "0"], None, 2,
                  "error: x-min: must be > 0, got 0.0\n"),
    "bad-x-max": (_DENSITY + ["--x-max", "0.05"], None, 2,
                  "error: x-max: must be > x-min, got 0.05\n"),
    "bad-x-points": (_DENSITY + ["--x-points", "1"], None, 2,
                     "error: x-points: must be >= 2, got 1\n"),
    "bad-workers": (_SIM + ["--workers", "0"], None, 2,
                    "error: workers: must be >= 1, got 0\n"),
    "defaults-bad-value": (["verify", "--defaults", "d.conf"], "gamma = abc\n", 2,
                           "error: gamma: bad value 'abc' in defaults file\n"),
    "defaults-bad-line": (["local-martingale", "--defaults", "d.conf"], "# settings\npaths 100\n", 2,
                          "error: defaults: line 2 is not key=value: 'paths 100'\n"),
    "defaults-bad-choice": (["simulate", "--defaults", "d.conf", "--gamma", "1", "--a", "1", "--t", "1"],
                            "process = bogus\n", 2,
                            "error: process: must be ou-killed or radial, got 'bogus'\n"),
    "defaults-bad-x-scale": (_DENSITY + ["--defaults", "d.conf"], "x-scale = cubic\n", 2,
                             "error: x-scale: must be linear or log, got 'cubic'\n"),
    # an empty t names no time, even where t has a fallback
    "defaults-empty-t": (["verify", "--defaults", "d.conf"], "t =\n", 2,
                         "error: missing required parameter: t\n"),
    "unwritable-simulate": (_SIM + ["--format", "json", "--out", "no/dir/s.json"], None, 1,
                            f"error: cannot write no/dir/s.json: {_ENOENT}: 'no/dir/s.json'\n"),
    "unwritable-verify": (["verify", "--paths", "50", "--workers", "1", "--out", "no/dir/rep"], None, 1,
                          f"error: cannot write report no/dir/rep.json/.csv: {_ENOENT}: "
                          "'no/dir/rep.json'\n"),
    "unwritable-density": (_DENSITY + ["--out", "no/dir/d.csv"], None, 1,
                           f"error: cannot write no/dir/d.csv: {_ENOENT}: 'no/dir/d.csv'\n"),
    "unwritable-local-martingale": (["local-martingale", "--paths", "50", "--workers", "1",
                                     "--out", "no/dir/l.csv"], None, 1,
                                    f"error: cannot write no/dir/l.csv: {_ENOENT}: 'no/dir/l.csv'\n"),
    # recorded after commit 63be3de, where both commands exited 2 with
    # "error: need at least 2 samples, got 1", naming no field
    "bad-paths-simulate": (_SIM + ["--paths", "1"], None, 2,
                           "error: paths: must be >= 2, got 1\n"),
    "bad-paths-local-martingale": (["local-martingale", "--paths", "1", "--workers", "1"], None, 2,
                                   "error: paths: must be >= 2, got 1\n"),
    # recorded after commit e6fc482, where this command still exited 0 and
    # printed mean=1.3e17 (the exact law's mean is about 1.1e26)
    "euler-step-past-explosive-limit": (
        ["simulate", "--process", "radial", "--scheme", "euler", "--gamma", "-600", "--a", "1",
         "--t", "0.1", "--dt", "0.002", "--paths", "10", "--workers", "1"], None, 2,
        "error: the drift-implicit radial step needs 1 + gamma*h > 0; got gamma = -600 "
        "with substep h = 0.002 (use a smaller dt)\n"),
}
