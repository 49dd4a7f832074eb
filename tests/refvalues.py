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
#    draw became one normal and one exponential per value; and the
#    closed-form rows (the killed-semigroup targets and gaps, the density
#    masses and the htransform-residual values) after commit ab1a9e8, when
#    the densities and their quadrature moved to the standardised coordinate
#    X_t = sd (u + W), with the sampled values left as they were; and the
#    survival-exact-scheme value and gap when that row began reading the
#    unit-mass paths at t_mid in place of a 16-interval draw of its own; and
#    the transport-agreement and conditioning-gap rows when their killed
#    sides began reading those unit-mass paths too, and the conditioning
#    lhs and E_Q[1/X] the weighted-radial and t_mid local-martingale draws:
#    (check, status, value, target, gap) ------------------------------------
SUITE_N20000_SEED96 = (
    ("martingale-mean[t=0.5]", "pass", 0.9949440158465359, 1.0, 0.7608089725286236),
    ("martingale-mean[t=1]", "pass", 1.0049695955012623, 1.0, 0.39300859311983904),
    ("martingale-mean[t=2]", "pass", 0.9971551478051047, 1.0, 0.07744750014485555),
    ("weight-unit-mass[t=0.5]", "pass", 0.9996429593306523, 1.0, 0.05870163183772127),
    ("weight-unit-mass[t=1]", "pass", 0.9834561753920094, 1.0, 1.6792407967739238),
    ("weight-unit-mass[t=2]", "pass", 1.008143912122082, 1.0, 0.4225059527356025),
    ("transport-agreement[one]", "pass", 0.42557605261034914, 0.42585, 0.06613035408030189),
    ("transport-agreement[1(x>1)]", "pass", 0.14886356677933962, 0.1433, 2.0841419994670596),
    ("transport-agreement[1(x<0.5)]", "pass", 0.09847969223700882, 0.1, 0.45134807820263523),
    ("transport-agreement[min(x^1,10)]", "pass", 0.36787944117144233, 0.36179330821981637, 1.6792407967739273),
    ("conditioning-gap[one]", "pass", 1.1568356504380424, 1.1523195311391434, 0.5337577313029502),
    ("conditioning-gap[1(x>1)]", "pass", 0.4046531284958785, 0.38775951347244164, 2.4884756654700073),
    ("conditioning-gap[1(x<0.5)]", "pass", 0.2676955578801004, 0.2705928216834903, 0.3228429680136633),
    ("conditioning-gap[min(x^1,10)]", "pass", 1.0, 0.9789867213740483, 2.7851571830388075),
    ("killed-semigroup[one]", "pass", 0.42557605261034914, 0.42417644177971586, 0.6300395752449707),
    ("killed-semigroup[1(x>1)]", "pass", 0.14886356677933962, 0.14943665268611808, 0.5766902395509961),
    ("killed-semigroup[1(x<0.5)]", "pass", 0.09847969223700882, 0.09723219929053567, 0.4767922984823854),
    ("killed-semigroup[min(x^1,10)]", "pass", 0.36787944117144233, 0.3678794411714424, 5.551115123125783e-06),
    ("killed-density-mass[t=0.5]", "pass", 0.7193528563918145, 0.7193528563918145, 0.0),
    ("radial-density-mass[t=0.5]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=0.5]", "pass", 4.895002412588805e-16, 0.0, 4.895002412588805e-16),
    ("killed-density-mass[t=1]", "pass", 0.42417644177971586, 0.42417644177971575, 1.1102230246251565e-16),
    ("radial-density-mass[t=1]", "pass", 1.0000000000000002, 1.0, 2.220446049250313e-16),
    ("htransform-residual[t=1]", "pass", 4.599761204898943e-16, 0.0, 4.599761204898943e-16),
    ("killed-density-mass[t=2]", "pass", 0.15317431284600858, 0.15317431284600858, 0.0),
    ("radial-density-mass[t=2]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=2]", "pass", 4.18932778883159e-16, 0.0, 4.18932778883159e-16),
    ("local-martingale-monotone", "pass", 0.7193528563918145, 1.0, -0.2710021289337072),
    ("local-martingale-mc[t=0.5]", "pass", 0.7202136430303719, 0.7193528563918145, 0.22326407207567314),
    ("local-martingale-mc[t=1]", "pass", 0.42391466516640647, 0.42417644177971575, 0.12006679999225292),
    ("local-martingale-mc[t=2]", "pass", 0.1526109677550829, 0.15317431284600858, 0.7514619539049416),
    ("survival-exact-scheme", "pass", 0.42585, 0.42417644177971575, 0.4786344512717586),
    ("euler-radial-ks", "pass", 0.008050000000000002, 0.0, 0.008050000000000002),
    ("euler-radial-msq", "pass", 1.426819668062648, 1.4323323583816938, 0.005512690319045888),
    ("euler-radial-tail", "pass", 3.242925772734524, 5.725485107077875, 3.242925772734524),
)


# -- run_suite(SuiteConfig(n_paths=BLOCK_SIZE + 4_464, seed=98)), i.e. 70,000
#    paths in two blocks per estimator, as computed at commit 2fe095a, with
#    the euler-radial, family and closed-form rows re-pinned as above:
#    (check, status, value, target, gap) -------------------------------------
SUITE_N70000_SEED98 = (
    ("martingale-mean[t=0.5]", "pass", 0.9997814991469799, 1.0, 0.06242006809559148),
    ("martingale-mean[t=1]", "pass", 0.9984532283753169, 1.0, 0.22870872633692244),
    ("martingale-mean[t=2]", "pass", 0.9794129667707748, 1.0, 1.0537987820787573),
    ("weight-unit-mass[t=0.5]", "pass", 0.9960172660151105, 1.0, 1.220687209820892),
    ("weight-unit-mass[t=1]", "pass", 0.9922746267674216, 1.0, 1.4496478150998342),
    ("weight-unit-mass[t=2]", "pass", 0.992101109553289, 1.0, 0.7754914341913647),
    ("transport-agreement[one]", "pass", 0.42202364616322324, 0.4229, 0.39802620454058923),
    ("transport-agreement[1(x>1)]", "pass", 0.1505325633060191, 0.1472, 2.3137661343657476),
    ("transport-agreement[1(x<0.5)]", "pass", 0.09591131263303783, 0.09992857142857142, 2.256136450193308),
    ("transport-agreement[min(x^1,10)]", "pass", 0.3678794411714424, 0.3650374351838007, 1.4496478150997922),
    ("conditioning-gap[one]", "pass", 1.14717920854552, 1.1522609677799502, 1.1334259886883622),
    ("conditioning-gap[1(x>1)]", "pass", 0.4091899314261126, 0.4010707364795665, 2.212035509661964),
    ("conditioning-gap[1(x<0.5)]", "pass", 0.2607139782740412, 0.2722719139823921, 2.4319024717326183),
    ("conditioning-gap[min(x^1,10)]", "pass", 1.0, 0.9946048435582808, 1.318945596101615),
    ("killed-semigroup[one]", "pass", 0.42202364616322324, 0.42417644177971586, 1.8452332251153134),
    ("killed-semigroup[1(x>1)]", "pass", 0.1505325633060191, 0.14943665268611808, 2.0667294071505595),
    ("killed-semigroup[1(x<0.5)]", "pass", 0.09591131263303783, 0.09723219929053567, 0.961926039923436),
    ("killed-semigroup[min(x^1,10)]", "pass", 0.36787944117144233, 0.3678794411714424, 0.0),
    ("killed-density-mass[t=0.5]", "pass", 0.7193528563918145, 0.7193528563918145, 0.0),
    ("radial-density-mass[t=0.5]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=0.5]", "pass", 4.895002412588805e-16, 0.0, 4.895002412588805e-16),
    ("killed-density-mass[t=1]", "pass", 0.42417644177971586, 0.42417644177971575, 1.1102230246251565e-16),
    ("radial-density-mass[t=1]", "pass", 1.0000000000000002, 1.0, 2.220446049250313e-16),
    ("htransform-residual[t=1]", "pass", 4.599761204898943e-16, 0.0, 4.599761204898943e-16),
    ("killed-density-mass[t=2]", "pass", 0.15317431284600858, 0.15317431284600858, 0.0),
    ("radial-density-mass[t=2]", "pass", 1.0, 1.0, 0.0),
    ("htransform-residual[t=2]", "pass", 4.18932778883159e-16, 0.0, 4.18932778883159e-16),
    ("local-martingale-monotone", "pass", 0.7193528563918145, 1.0, -0.2710021289337072),
    ("local-martingale-mc[t=0.5]", "pass", 0.7212327144681127, 0.7193528563918145, 0.9469323033986318),
    ("local-martingale-mc[t=1]", "pass", 0.4238931209105533, 0.42417644177971575, 0.2430005815004008),
    ("local-martingale-mc[t=2]", "pass", 0.15346747452022844, 0.15317431284600858, 0.6611380356061722),
    ("survival-exact-scheme", "pass", 0.4229, 0.42417644177971575, 0.6836007790308974),
    ("euler-radial-ks", "pass", 0.004500000000000004, 0.0, 0.004500000000000004),
    ("euler-radial-msq", "pass", 1.435916494174149, 1.4323323583816938, 0.00358413579245509),
    ("euler-radial-tail", "pass", 3.5549607916871295, 5.812130239385148, 3.5549607916871295),
)

# -- SHA-256 of the same report, as computed at commit 8e187fe and re-pinned
#    after commit 1b3f768 for the 2-variate radial draw, and after commit
#    ab1a9e8 for the closed forms in the standardised coordinate; its JSON
#    re-pinned after commit 9e7771e, when the htransform-residual rows'
#    oracle was renamed to the weight they check, and both re-pinned when
#    the survival row began reading the unit-mass paths, and again when the
#    transport and conditioning rows did: its
#    to_csv() and its to_json() with "meta" dropped,
#    re-dumped with sort_keys=True and no indent.  Unlike the rows above,
#    these cover every byte, the seed, reason and threshold fields included -
SUITE_N70000_SEED98_SHA256 = {
    "csv": "5841bd652ad8b842c161b6270f6e5c73c880a1d9b0f74cb9f143555e7b1de1d5",
    "json": "168aa0014d44bbe1550ce43b6c227701f6df88e5165a8c49cc6f18669d62954b",
}

# -- SHA-256 of the reports whose rows are skipped, digested as above:
#    run_suite(SuiteConfig(n_paths=10)), where every sampled row is skipped
#    for too few paths, and run_suite(SuiteConfig(gamma=50, times=(0.5, 6.9,
#    6.95), n_paths=300)), where the weight-unit-mass rows expect too few
#    survivors and the conditioning-gap rows draw none.  The CSVs are as
#    computed at commit 9493536; the JSON as computed after it, when a skipped
#    row's threshold became null (it was a bare NaN, which is not JSON); both
#    re-pinned after commit ab1a9e8 for the closed-form rows, and the JSON
#    after commit 9e7771e for the renamed residual oracle, as above; the
#    gamma50 JSON re-pinned again when the survival row began reading the
#    unit-mass paths, whose seed it now records ----------------------------
SUITE_SKIPPED_SHA256 = {
    "n10": {
        "csv": "464fb2a17950adc054ebf1ab4a56c9015d9a1384818e637fa15c1e1c8c85ee47",
        "json": "884c5e757c5aac9376c4776f7f63a36343c998c911df2d963d4145f08f270338",
    },
    "gamma50": {
        "csv": "9910f6456e7ad982c774628d38e5b1ad9822fb8500439ec2cad842392247c01d",
        "json": "906b569f0fd14e7c9f2a7e5d140235fffdc90722b96edfe649c8ee9338897303",
    },
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
#    2-variate draw, and the killed-exact, killed-euler and radial-euler JSON
#    ones after commit 12d8ca0, whose mean and stderr now merge the two
#    blocks' summaries: (process, scheme, format) -> digest ----------------
SIMULATE_SHA256_N65537_SEED12 = {
    ("ou-killed", "exact", "csv"): "fde8c5dd7a246e2b60a26e23352a33bd12e8f26c70a5fb0a40af366854ff8d55",
    ("ou-killed", "exact", "json"): "e8d301961db887eabb4397547f78900bcf9da039b8457e3ba4fd3249d5cd1f06",
    ("ou-killed", "euler", "csv"): "e6a92299f690934793de0f255bd533fd68ef7a0e8416236d6bd7949fa84a3a70",
    ("ou-killed", "euler", "json"): "c137ef3283a8f6c24837a6d2ed3b02f39c5438dd76074c9a32f9c8be8cf27334",
    ("radial", "euler", "csv"): "b461d093c67363e1ddc69e8bbd914ec26177db24dff1ffb8df1773a23b30513e",
    ("radial", "euler", "json"): "b5b3b145509d8717975981d3373717d1e536d452a87d555727f75ff8062b38d6",
    ("radial", "exact", "csv"): "102a86c062d3ac9ec0fd5a95946699cfcf54c728e3923b9b4d9b73370e7eed18",
    ("radial", "exact", "json"): "251e4b017516fc7e2a0b3e4db0cd0a74e1107551207020d00d50c44003b735b4",
}

# -- euler_radial(ProcessParams(0.5, 0.05), TimeGrid.from_times((0.5, 1)),
#    SchemeConfig(dt=0.05), stream(4, 0), 4096) by the drift-implicit step,
#    as computed after commit e6fc482: SHA-256 of values.tobytes() -----------
EULER_RADIAL_G05_A005_DT005 = "4f1ac3a87b802d54d929ad31d6677af8be732c63aadf5aff6b880a2dfa1d3939"

# -- SHA-256 of .values.tobytes() on ragged grids, as computed at commit
#    fe4ebae: euler_radial(ProcessParams(-300, 1e-3), TimeGrid.from_times((0.01,
#    0.0105, 0.03)), SchemeConfig(0.002), stream(240, 0), 4096), whose 5, 1 and
#    10 substeps have k = 1 + gamma*h of 0.4, 0.85 and 0.415, so both root
#    branches run; and euler_ou(ProcessParams(1, 0.5), TimeGrid.from_times((0.3,
#    0.3005, 0.9)), SchemeConfig(0.002), stream(241, 0), 4096), whose intervals
#    take 150, 1 and 300 substeps -------------------------------------------
EULER_RADIAL_RAGGED_GM300 = "8ca30d0501cab40d6658930b1eba3691b10b8a0723562e1e14afafd45ba11762"
EULER_OU_RAGGED_G1_A05 = "eebc4618e99fd8183795402dc572ad364eeee6274844837d133a138a69a640df"

# -- SHA-256 of the values, with the time-0 column a put back in front, of
#    simulate_killed_ou_exact(P, grid, stream(220, 0), 4096) and euler_ou(P,
#    grid, SchemeConfig(dt=0.01), stream(221, 0), 4096) on grid =
#    TimeGrid(np.linspace(0.0, 2.0, 17)), P = ProcessParams(1, 1), as computed
#    at commit 63be3de: scheme -> digest ------------------------------------
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
_RADIAL_TAIL = ("error: the radial law's squared 12-sigma tail overflows for gamma = 1, "
                "a = {a}, t = {t}; the requested start and horizon are outside the usable range\n")
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
    # recorded after commit 7dafcce, where a key that no command has was
    # passed over without a word
    "defaults-unknown-key": (["local-martingale", "--defaults", "d.conf"],
                             "# shared settings\ngamma = 1\npathz = 10\n", 2,
                             "error: defaults: line 3: no command has an option 'pathz'\n"),
    "defaults-hidden-flag": (["verify", "--defaults", "d.conf"], "inject-weight-bias = 0.05\n", 2,
                             "error: defaults: line 1: no command has an option "
                             "'inject-weight-bias'\n"),
    # recorded after commit 9493536, where it exited 3 with NaN in four
    # transport-agreement rows of its report
    "bad-weight-bias": (["verify", "--inject-weight-bias", "nan"], None, 2,
                        "error: weight_bias must be finite, got nan\n"),
    "defaults-unreadable": (["verify", "--defaults", "no.conf"], None, 2,
                            f"error: defaults: cannot read no.conf: {_ENOENT}: 'no.conf'\n"),
    "density-two-times": (_DENSITY + ["--t", "2"], None, 2,
                          "error: t: density tabulation takes exactly one time\n"),
    # simulate resolves dt before seed, so a missing dt is named first
    "missing-dt-and-bad-seed": (_SIM + ["--scheme", "euler", "--seed", "-1"], None, 2,
                                "error: missing required parameter: dt\n"),
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
    # recorded after commit a0c4b2b, where the first printed only "error: math
    # range error" and the second drew all 16 blocks before its closed form failed
    "horizon-local-martingale-explosive": (
        ["local-martingale", "--gamma", "-50", "--a", "1", "--t", "15", "--workers", "1"], None, 2,
        "error: exp(-2*gamma*t) overflows for gamma = -50, t = 15 (gamma*t = -750); "
        "the requested horizon is outside the usable range\n"),
    "horizon-local-martingale-clock": (
        ["local-martingale", "--gamma", "400", "--a", "1", "--t", "1", "--paths", "1000000",
         "--workers", "1"], None, 2,
        "error: exp(2*gamma*t) overflows for gamma = 400, t = 1 (gamma*t = 400); "
        "the requested horizon is outside the usable range\n"),
    # recorded after commit e6fc482, where this command still exited 0 and
    # printed mean=1.3e17 (the exact law's mean is about 1.1e26)
    "euler-step-past-explosive-limit": (
        ["simulate", "--process", "radial", "--scheme", "euler", "--gamma", "-600", "--a", "1",
         "--t", "0.1", "--dt", "0.002", "--paths", "10", "--workers", "1"], None, 2,
        "error: the drift-implicit radial step needs 1 + gamma*h > 0; got gamma = -600 "
        "with substep h = 0.002 (use a smaller dt)\n"),
    # recorded after commit 26c5f90, where the two simulate and the
    # local-martingale and density command lines exited 0 printing inf, mc=0
    # or a radial mass of 0, and verify exited 2 printing only
    # "error: (34, 'Numerical result out of range')"
    "radial-tail-simulate-exact": (
        ["simulate", "--process", "radial", "--gamma", "1", "--a", "1e300", "--t", "1",
         "--paths", "1000", "--workers", "1"], None, 2, _RADIAL_TAIL.format(a="1e+300", t="1")),
    "radial-tail-simulate-euler": (
        ["simulate", "--process", "radial", "--scheme", "euler", "--dt", "0.01", "--gamma", "1",
         "--a", "1e155", "--t", "1", "--paths", "1000", "--workers", "1"], None, 2,
        _RADIAL_TAIL.format(a="1e+155", t="1")),
    "radial-tail-local-martingale": (
        ["local-martingale", "--a", "1e300", "--paths", "2000", "--workers", "1"], None, 2,
        _RADIAL_TAIL.format(a="1e+300", t="0.25")),
    "radial-tail-density": (
        ["density", "--gamma", "1", "--a", "1e300", "--t", "1", "--x-min", "1e299",
         "--x-max", "1e301"], None, 2, _RADIAL_TAIL.format(a="1e+300", t="1")),
    "radial-tail-verify": (
        ["verify", "--a", "1e300", "--paths", "2000", "--workers", "1"], None, 2,
        _RADIAL_TAIL.format(a="1e+300", t="0.5")),
    # recorded after commit fc6bacd, where both command lines passed the
    # tail rule at t = 5 and squared the start a = 1e155 of each radial Euler
    # path: simulate exited 0 writing inf, verify exited 3 with inf rows
    "radial-tail-simulate-euler-start": (
        ["simulate", "--process", "radial", "--scheme", "euler", "--dt", "0.01", "--gamma", "1",
         "--a", "1e155", "--t", "5", "--paths", "1000", "--workers", "1"], None, 2,
        _RADIAL_TAIL.format(a="1e+155", t="0")),
    "radial-tail-verify-euler-start": (
        ["verify", "--gamma", "1", "--a", "1e155", "--t", "5", "--paths", "2000", "--workers",
         "1"], None, 2, _RADIAL_TAIL.format(a="1e+155", t="0")),
}

# -- SHA-256 of the files written by `ouht density --gamma 1 --a 1 --t 1
#    --x-min 0.01 --x-max 3 --format F` (500 log-spaced points) and by
#    `ouht local-martingale --paths 20000 --seed 7` (times 0.25 0.5 1 2 4),
#    as computed at commit a0c4b2b, the density ones re-pinned after commit
#    ab1a9e8 for the standardised coordinate: output -> digest --------------
DENSITY_SHA256_G1_A1_T1 = {
    "csv": "18a1ce2d27f3e9fed33f0ace01b15052745323826d5ce5050a6b6527b4f4ac32",
    "json": "2e6f339a4bd41c43bf39c9786d13f6b23a1a877edbef8c8c1804a15cf738dd28",
}
LOCAL_MARTINGALE_SHA256_N20000_SEED7 = "fe83422be8df5ef286cd328d375f8cdd142047cdee030bacbc74e77f9c0877fe"


# -- the measure API's MCEstimates, as (mean, stderr, n, seed), at
#    ProcessParams(1, 1) with BLOCK_SIZE + 1 = 65,537 paths (two blocks), as
#    computed at commit a8e8f33: each estimate_* function for each default
#    functional at t = 1 and seed 5 (name, label) -> estimate; then
#    conditional_identity_detail at t = 1, seed 3 and workers=2, label ->
#    (lhs, q_inverse_mean, conditional_mean); then local_martingale_curve at
#    times (0.5, 1) and seed 4, as (t, estimate, closed_form) --------------
MEASURE_API_ESTIMATES = {
    ("estimate_killed_expectation_via_Q", "one"):
        (0.42593605986495353, 0.0016326063764644406, 65537, 5),
    ("estimate_killed_expectation_via_Q", "1(x>1)"):
        (0.14935524982274756, 0.000548147263316228, 65537, 5),
    ("estimate_killed_expectation_via_Q", "1(x<0.5)"):
        (0.09848237418963705, 0.0018030512800417246, 65537, 5),
    ("estimate_killed_expectation_via_Q", "min(x^1,10)"):
        (0.36787944117144233, 1.1576407373540528e-19, 65537, 5),
    ("estimate_killed_expectation_direct", "one"):
        (0.4272853502601584, 0.001932360637868646, 65537, 5),
    ("estimate_killed_expectation_direct", "1(x>1)"):
        (0.1494270412133604, 0.0013926129168579699, 65537, 5),
    ("estimate_killed_expectation_direct", "1(x<0.5)"):
        (0.09797518958756123, 0.0011612542929043306, 65537, 5),
    ("estimate_killed_expectation_direct", "min(x^1,10)"):
        (0.37015598979336994, 0.002033503926605559, 65537, 5),
    ("estimate_Q_expectation_via_P", "one"):
        (1.0061883007505894, 0.005527636771792006, 65537, 5),
    ("estimate_Q_expectation_via_P", "1(x>1)"):
        (0.5548268197763875, 0.005317574291480462, 65537, 5),
    ("estimate_Q_expectation_via_P", "1(x<0.5)"):
        (0.08629389287121965, 0.0010978598652966627, 65537, 5),
    ("estimate_Q_expectation_via_P", "min(x^1,10)"):
        (1.1091021391006188, 0.008301815479836232, 65537, 5),
    ("estimate_radial_expectation_direct", "one"):
        (1.0, 0.0, 65537, 5),
    ("estimate_radial_expectation_direct", "1(x>1)"):
        (0.5538092985641698, 0.0019417817457386874, 65537, 5),
    ("estimate_radial_expectation_direct", "1(x<0.5)"):
        (0.0855699833681737, 0.0010926875511835382, 65537, 5),
    ("estimate_radial_expectation_direct", "min(x^1,10)"):
        (1.102309346851332, 0.0018113196434130152, 65537, 5),
}
MEASURE_API_CONDITIONAL = {
    "one": (
        (1.1564199867756277, 0.0033681054130138706, 65537, 2334885880687405538),
        (1.1517666498025803, 0.0032980457939264514, 65537, 2116548675933391898),
        (1.0, 0.0, 28056, 9574696519965620253),
    ),
    "1(x>1)": (
        (0.40755946252671016, 0.001488229860748711, 65537, 2334885880687405538),
        (1.1517666498025803, 0.0032980457939264514, 65537, 2116548675933391898),
        (0.3556458511548332, 0.00285802518466858, 28056, 9574696519965620253),
    ),
    "1(x<0.5)": (
        (0.27113250975033204, 0.003964858057923895, 65537, 2334885880687405538),
        (1.1517666498025803, 0.0032980457939264514, 65537, 2116548675933391898),
        (0.23053892215568864, 0.002514550261981541, 28056, 9574696519965620253),
    ),
    "min(x^1,10)": (
        (1.0, 0.0, 65537, 2334885880687405538),
        (1.1517666498025803, 0.0032980457939264514, 65537, 2116548675933391898),
        (0.8684168824114986, 0.002712752199217533, 28056, 9574696519965620253),
    ),
}
MEASURE_API_CURVE = (
    (0.5, (0.7184820489492899, 0.002030589627191916, 65537, 16855432759276892895),
     0.7193528563918145),
    (1.0, (0.423470773174681, 0.0012289344710937275, 65537, 6304644238234968117),
     0.42417644177971575),
)
