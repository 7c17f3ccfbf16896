"""Workload inputs and their known answers.

Nothing here imports hopf_forge: the genuine inputs are built by the
hopf-forge CLI (those commands are the timed set-up), and everything the
harness derives from them (the k[S3] presentation, the mutants, the
malformed files) is plain JSON manipulation.  The known answers below are
written from theory, not read back from the program.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("small", "t3z5")

# Per-request limit for non-Hopf and malformed inputs, in seconds.  Those
# that decide take under 1 s from the CLI.  `report` on the order-999
# probe spends about 8 s before it reaches operator_order, where it hangs
# at the seed, so a fix there can decide within the limit.  Genuine
# inputs get the per-run cap, so only a hung request hits it.
REJECT_LIMIT_S = 12.0
GENEROUS_LIMIT_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


@dataclass(frozen=True)
class Answer:
    """Invariants of a genuine Hopf algebra, from the classical theory."""
    dim: int
    n: int                 # index: order of S^2 combined with ord(g)
    grouplikes: int
    coradical_dim: int
    semisimple: bool
    cosemisimple: bool
    unimodular: bool
    pointed: bool


def _taft(n):
    # Taft algebra T_n: g^n = 1, x^n = 0.  S^2 and g both have order n,
    # G(T_n) = <g>, the coradical is k<g>; T_n is neither semisimple nor
    # cosemisimple nor unimodular.
    return Answer(dim=n * n, n=n, grouplikes=n, coradical_dim=n,
                  semisimple=False, cosemisimple=False, unimodular=False,
                  pointed=True)


def _group(order):
    # k[G] in characteristic 0: semisimple (Maschke), cosemisimple, S^2 = id,
    # g = 1, G(k[G]) = G and the coradical is everything.
    return Answer(dim=order, n=1, grouplikes=order, coradical_dim=order,
                  semisimple=True, cosemisimple=True, unimodular=True,
                  pointed=True)


ANSWERS = {
    "sweedler": _taft(2),
    "taft3": _taft(3),
    "taft3_r2": _taft(3),
    "dual_taft3": _taft(3),          # Taft algebras are self-dual
    "taft5": _taft(5),
    "z15": _group(15),
    "z3xz3": _group(9),
    # k^{S3}: commutative semisimple and cosemisimple; its grouplikes are
    # the two linear characters of S3 (trivial and sign); the coradical is
    # all of it, so it is not pointed.
    "dual_s3": Answer(dim=6, n=1, grouplikes=2, coradical_dim=6,
                      semisimple=True, cosemisimple=True, unimodular=True,
                      pointed=False),
    # A (x) B: G(A (x) B) = G(A) x G(B), coradical k[G(A) x G(B)] for
    # pointed factors, index and unimodularity from the Taft factor.
    "taft3_z3": Answer(dim=27, n=3, grouplikes=9, coradical_dim=9,
                       semisimple=False, cosemisimple=False,
                       unimodular=False, pointed=True),
    "t3z5": Answer(dim=45, n=3, grouplikes=15, coradical_dim=15,
                   semisimple=False, cosemisimple=False, unimodular=False,
                   pointed=True),
}


# -- requests -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One CLI call and the verdict it must produce.

    kind is "genuine" (a Hopf algebra listed in ANSWERS under member),
    "reject" (readable but not a Hopf algebra: exit 1) or "malformed"
    (exit 2 by the README contract).
    """
    input_id: str
    command: str            # "verify" or "report"
    path: str
    kind: str
    member: str | None
    limit_s: float

    @property
    def rid(self):
        return f"{self.input_id}/{self.command}"

    def argv(self):
        if self.command == "report":
            return ["report", self.path, "--json"]
        return ["verify", self.path]


@dataclass(frozen=True)
class Outcome:
    rc: int | None          # None when the request hit its limit
    stdout: bytes
    stderr: bytes

    @property
    def timed_out(self):
        return self.rc is None


def _golden(member):
    with open(os.path.join(GOLDEN_DIR, f"{member}.json"), "rb") as fh:
        return fh.read()


def judge(req: Request, out: Outcome):
    """(ok, defect) for one request.

    defect is None when ok.  Otherwise it names a defect kind the seed is
    known to have on some inputs ("accepts-non-hopf", "exit3-on-mutant",
    "no-verdict-within-limit") or is "unexpected:<why>".
    """
    if b"Traceback" in out.stderr:
        return False, "unexpected:traceback"
    if req.kind == "genuine":
        if out.timed_out:
            return False, "unexpected:genuine-timeout"
        if out.rc != 0:
            return False, f"unexpected:genuine-exit-{out.rc}"
        if req.command == "verify":
            lines = out.stdout.decode().splitlines()
            if not lines or any(": ok" not in ln for ln in lines):
                return False, "unexpected:verify-line-not-ok"
            return True, None
        if out.stdout != _golden(req.member):
            return False, "unexpected:report-bytes-differ-from-golden"
        doc = json.loads(out.stdout)
        want = ANSWERS[req.member]
        got = Answer(dim=doc["dim"], n=doc["index"]["n"],
                     grouplikes=doc["grouplike_count"],
                     coradical_dim=doc["coradical_dim"],
                     semisimple=doc["semisimple"],
                     cosemisimple=doc["cosemisimple"],
                     unimodular=doc["unimodular"], pointed=doc["pointed"])
        if got != want or doc["all_ok"] is not True:
            return False, "unexpected:report-invariants-wrong"
        return True, None
    if req.kind == "malformed":
        if out.rc == 2 and out.stderr.startswith(b"error:"):
            return True, None
        return False, f"unexpected:malformed-exit-{out.rc}"
    # readable, not a Hopf algebra: exit 1 from both commands
    if out.rc == 1:
        if req.command == "verify" and b"FAIL" not in out.stdout:
            return False, "unexpected:verify-exit-1-without-FAIL"
        return True, None
    if out.timed_out:
        return False, "no-verdict-within-limit"
    if out.rc == 3:
        return False, "exit3-on-mutant"
    if out.rc == 0 and req.command == "report":
        return False, "accepts-non-hopf"
    return False, f"unexpected:non-hopf-{req.command}-exit-{out.rc}"


def _load_known_defects():
    with open(os.path.join(HERE, "known_defects.json")) as fh:
        return json.load(fh)


# The seed's wrong verdicts, keyed by request id: every probe and every
# (base, class, site, shift, command) of the mutant space on which the
# program at the parent commit exits 0, exits 3 or runs past the limit.
# A failure on any other request, or of another kind, is a new defect.
KNOWN_DEFECTS = _load_known_defects()


def is_known_defect(req, defect):
    return defect is not None and KNOWN_DEFECTS.get(req.rid) == defect


# -- inputs the harness writes itself -----------------------------------------


def s3_document():
    """k[S3] over Q, from its Cayley table (the CLI zoo has cyclic groups
    only).  Elements are permutations of (0, 1, 2); the identity is
    element 0."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):
        return tuple(a[b[t]] for t in range(3))

    def inverse(a):
        out = [0, 0, 0]
        for t, at in enumerate(a):
            out[at] = t
        return tuple(out)

    n = len(perms)
    mult = sorted([i, j, index[compose(a, b)], 1]
                  for i, a in enumerate(perms) for j, b in enumerate(perms))
    antipode = [[1 if t == index[inverse(a)] else 0 for t in range(n)]
                for a in perms]
    return {
        "name": "k[S3]", "dim": n, "cyclotomic_order": 1,
        "basis": ["".join(map(str, p)) for p in perms],
        "mult": mult,
        "comult": [[i, i, i, 1] for i in range(n)],
        "unit": [1] + [0] * (n - 1),
        "counit": [1] * n,
        "antipode": antipode,
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _shift(scalar, delta):
    """scalar + delta for a file scalar (int or num/den object)."""
    if isinstance(scalar, int):
        return scalar + delta
    num = list(scalar["num"])
    num[0] += delta * scalar["den"]
    return {"num": num, "den": scalar["den"]}


def _mutation_sites(doc):
    """Single-entry corruptions that are non-Hopf by a uniqueness theorem,
    grouped by class.  Each site is (field, position).

    - multunit: a mult entry (i, j, k) with unit_i != 0 or unit_j != 0.
      Shifting it changes 1 e_j or e_i 1 in coordinate k, so the unit
      axiom fails.
    - delta1: a comult entry (i, j, k) with unit_i != 0.  Shifting it
      changes Delta(1) in coordinate (j, k), so Delta(1) != 1 (x) 1.
    - unit, counit: the unit and counit of a (co)algebra are unique.
    - antipode: the antipode is unique (the convolution inverse of id).
    """
    unit = doc["unit"]
    dim = doc["dim"]
    return {
        "multunit": [("mult", p) for p, (i, j, _k, _c) in
                     enumerate(doc["mult"])
                     if unit[i] != 0 or unit[j] != 0],
        "delta1": [("comult", p) for p, (i, _j, _k, _c) in
                   enumerate(doc["comult"]) if unit[i] != 0],
        "unit": [("unit", p) for p in range(dim)],
        "counit": [("counit", p) for p in range(dim)],
        "antipode": [("antipode", (i, j)) for i in range(dim)
                     for j in range(dim)],
    }


def _mutant_id(base, cls, doc, site, delta):
    """base:class:site+shift, with the site named by content: mult(i,j,k),
    comult(i,j,k), unit[i], counit[i] or antipode[i,j] (coordinate j of
    S(e_i))."""
    field, pos = site
    if field in ("mult", "comult"):
        label = f"{field}({','.join(map(str, doc[field][pos][:3]))})"
    elif field == "antipode":
        label = f"antipode[{pos[0]},{pos[1]}]"
    else:
        label = f"{field}[{pos}]"
    return f"{base}:{cls}:{label}{delta:+d}"


def _mutate(doc, site, delta):
    out = json.loads(json.dumps(doc))
    field, pos = site
    if field in ("mult", "comult"):
        out[field][pos][3] = _shift(out[field][pos][3], delta)
    elif field in ("unit", "counit"):
        out[field][pos] = _shift(out[field][pos], delta)
    else:
        i, j = pos
        out["antipode"][i][j] = _shift(out["antipode"][i][j], delta)
    return out


def _malformed(doc, rng):
    """Files that break the README's file format, each with exit 2."""
    dim = doc["dim"]
    out = {}
    text = json.dumps(doc)
    out["truncated"] = text[: rng.randrange(len(text) // 4, len(text) - 1)]
    for key, label in (("comult", "missing-comult"), ("unit", "missing-unit")):
        d = dict(doc)
        del d[key]
        out[label] = json.dumps(d)
    d = json.loads(text)
    d["mult"][rng.randrange(len(d["mult"]))][rng.randrange(3)] = dim
    out["index-out-of-range"] = json.dumps(d)
    d = json.loads(text)
    d["counit"][rng.randrange(dim)] = {"num": [1], "den": 0}
    out["zero-denominator"] = json.dumps(d)
    d = json.loads(text)
    d["basis"] = d["basis"][:-1]
    out["short-basis"] = json.dumps(d)
    return out


# -- the workloads ------------------------------------------------------------

# Set-up commands of `small`; together they leave <member>.json for every
# desk member, and the reject bases taft3, sweedler and dual_s3 among them.
_SMALL_SETUP = [
    ["zoo", "sweedler", "--out", "sweedler.json"],
    ["zoo", "taft", "--n", "3", "--out", "taft3.json"],
    ["zoo", "taft", "--n", "3", "--root-power", "2", "--out",
     "taft3_r2.json"],
    ["dual", "taft3.json", "--out", "dual_taft3.json"],
    ["zoo", "taft", "--n", "5", "--out", "taft5.json"],
    ["zoo", "group", "--cyclic", "15", "--out", "z15.json"],
    ["zoo", "group", "--cyclic", "3,3", "--out", "z3xz3.json"],
    ["dual", "k_s3.json", "--out", "dual_s3.json"],
    ["zoo", "group", "--cyclic", "3", "--out", "z3.json"],
    ["tensor", "--a", "taft3.json", "--b", "z3.json", "--lift-order", "3",
     "--out", "taft3_z3.json"],
]
_DESK_MEMBERS = ("sweedler", "taft3", "taft3_r2", "dual_taft3", "taft5",
                 "z15", "z3xz3", "dual_s3", "taft3_z3")

_T3Z5_SETUP = [
    ["zoo", "taft", "--n", "3", "--out", "taft3.json"],
    ["zoo", "group", "--cyclic", "5", "--out", "z5.json"],
    ["tensor", "--a", "taft3.json", "--b", "z5.json", "--lift-order", "15",
     "--out", "t3z5.json"],
]

_REJECT_BASES = ("taft3", "sweedler", "dual_s3")
_SHIFTS = (-2, -1, 1, 2, 3)
_BOTH = ("verify", "report")


class Workload:
    """Inputs of one workload inside a scratch directory.

    prepare() writes the harness-made files the set-up commands read;
    setup_commands are the timed CLI calls; requests() derives the rest
    (mutants, malformed files) and returns one pass of requests.
    """

    def __init__(self, name, work_dir, seed):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.work_dir = work_dir
        self.seed = seed
        self.setup_commands = {"small": _SMALL_SETUP,
                               "t3z5": _T3Z5_SETUP}[name]

    def path(self, filename):
        return os.path.join(self.work_dir, filename)

    def prepare(self):
        os.makedirs(self.work_dir, exist_ok=True)
        if self.name == "small":
            _write_json(self.path("k_s3.json"), s3_document())

    def requests(self):
        if self.name == "t3z5":
            return [self._request("t3z5", "t3z5.json", "genuine", command)
                    for command in _BOTH]
        rng = random.Random(f"{self.name}:{self.seed}")
        # (input_id, filename, kind, commands), genuine and reject
        # inputs interleaved so that both see the same host conditions
        inputs = [(m, f"{m}.json", "genuine", _BOTH) for m in _DESK_MEMBERS]
        inputs += self._reject_inputs(rng)
        rng.shuffle(inputs)
        return [self._request(input_id, fname, kind, command)
                for input_id, fname, kind, commands in inputs
                for command in commands]

    def _request(self, input_id, fname, kind, command):
        genuine = kind == "genuine"
        return Request(input_id=input_id, command=command,
                       path=self.path(fname), kind=kind,
                       member=input_id if genuine else None,
                       limit_s=GENEROUS_LIMIT_S if genuine
                       else REJECT_LIMIT_S)

    def _reject_inputs(self, rng):
        inputs = []
        for base in _REJECT_BASES:
            doc = _read_json(self.path(f"{base}.json"))
            for cls, sites in _mutation_sites(doc).items():
                site = rng.choice(sites)
                delta = rng.choice(_SHIFTS)
                fname = f"mut_{base}_{cls}.json"
                _write_json(self.path(fname), _mutate(doc, site, delta))
                inputs.append((_mutant_id(base, cls, doc, site, delta),
                               fname, "reject", _BOTH))
        # fixed probes from the ROADMAP, independent of the seed
        t3 = _read_json(self.path("taft3.json"))
        x_dot_1 = next(p for p, (i, j, k, _c) in enumerate(t3["mult"])
                       if (i, j, k) == (1, 0, 1))   # x * 1 = x
        doc = json.loads(json.dumps(t3))
        doc["mult"][x_dot_1][3] = 2
        _write_json(self.path("probe_x1_2x.json"), doc)
        inputs.append(("taft3:x*1:=2x", "probe_x1_2x.json", "reject",
                       _BOTH))
        doc = json.loads(json.dumps(t3))
        doc["cyclotomic_order"] = 999
        _write_json(self.path("probe_order999.json"), doc)
        # report only: verify rejects this probe correctly but takes ~8 s,
        # too close to the limit on a slow host and too long for the
        # benchmark's time budget
        inputs.append(("taft3:order999", "probe_order999.json", "reject",
                       ("report",)))
        base = rng.choice(_REJECT_BASES)
        for label, text in _malformed(_read_json(self.path(f"{base}.json")),
                                      rng).items():
            fname = f"bad_{label}.json"
            with open(self.path(fname), "w") as fh:
                fh.write(text)
            inputs.append((f"{base}:malformed:{label}", fname, "malformed",
                           _BOTH))
        return inputs
