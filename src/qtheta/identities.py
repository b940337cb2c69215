"""Identity records and the identity file format.

One record per identity:

    identity <name> ;
      params <p1> <p2> ... ;
      require <constraint>, <constraint>, ... ;   # optional, repeatable
      derive <name> := <expr> ;                   # optional, repeatable
      lhs <expr> ;
      rhs <expr> ;
      source "<tag>"

Fields after ``identity`` come in any order, separated by ';' (semicolons
inside parentheses belong to phi argument groups).  A record ends at the
next ``identity`` keyword, which may follow the source string without a
';'.  Repeated ``require`` lists add up, as ``derive`` bindings do; any
other repeated field is an error.  '#' starts a comment outside quotes, and
names and digits are ASCII.

Constraints: nonzero(e), notone(e), invertible(e) with e a DSL expression,
and distinct(p1, p2) on parameter names.  Derived bindings are evaluated
after the base parameters are sampled; they may be full series (for example
a rational function of a and q).

A file is read in one pass by ``dsl``'s lexer and parser: every expression
is taken from the file's token stream and gets the checks of ``dsl.parse``,
so tree positions, and the offsets of EvalErrors raised at them, are file
offsets.  Every error in a malformed file names the file and the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import RegistryError, line_of
from . import dsl

__all__ = ["Constraint", "IdentityDef", "parse_identities", "load_registry", "builtin_text"]

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")


@dataclass(frozen=True)
class Constraint:
    kind: str  # nonzero | notone | invertible | distinct
    expr: object  # AST for the value kinds, (name, name) for distinct
    text: str

    def __str__(self):
        return self.text


@dataclass(frozen=True)
class IdentityDef:
    name: str
    params: tuple
    constraints: tuple
    derives: tuple  # ((name, ast), ...)
    lhs: object
    rhs: object
    source: str
    # The file the record was read from, its text and the record's offset;
    # they place errors and take no part in comparisons.
    where: str = field(default="<string>", compare=False, repr=False)
    text: str = field(default="", compare=False, repr=False)
    pos: int = field(default=0, compare=False, repr=False)

    def locate(self, pos=None):
        """'<file>:<line>' of a file offset (default: the record's start)."""
        return "%s:%d" % (self.where, line_of(self.text, self.pos if pos is None else pos))


def _error(p, message, pos):
    text, where = p.src
    return RegistryError("%s:%d: %s" % (where, line_of(text, pos), message))


def _is_param(name):
    return len(name) == 1 and name.islower() and name != "q"


def _name(p, pos):
    """An identity name: the tokens up to the field's end, with nothing
    between them."""
    toks = []
    while p.peek()[0] not in (";", "EOF"):
        toks.append(p.take())
    name = p.src[0][toks[0][2]:toks[-1][2] + len(toks[-1][1])] if toks else ""
    if not _NAME_RE.fullmatch(name):
        raise _error(p, "bad identity name %r" % name, pos)
    return name


def _params(p):
    params = []
    while p.peek()[0] not in (";", "EOF"):
        _, name, pos = p.take()
        if not _is_param(name):
            raise _error(p, "bad parameter name %r" % name, pos)
        if name in params:
            raise _error(p, "duplicate parameter %r" % name, pos)
        params.append(name)
    return tuple(params)


def _require(p):
    """A comma-separated list of kind(e) for a value kind, or distinct(p1, p2)."""
    out = []
    while p.peek()[0] not in (";", "EOF"):
        _, kind, pos = p.take()
        if kind not in ("nonzero", "notone", "invertible", "distinct") or p.peek()[0] != "(":
            raise _error(p, "unrecognized constraint %r" % kind, pos)
        p.take()
        args = [p.expr()]
        while p.peek()[0] == ",":
            p.take()
            args.append(p.expr())
        text = p.src[0][pos:p.take(")")[2] + 1]
        if kind == "distinct":
            if len(args) != 2 or not all(isinstance(a, dsl.Ref) and _is_param(a.name)
                                         for a in args):
                raise _error(p, "distinct(...) needs two parameter names: %r" % text, pos)
            out.append(Constraint(kind, tuple(a.name for a in args), text))
        elif len(args) == 1:
            out.append(Constraint(kind, p.check(args[0]), text))
        else:
            raise _error(p, "%s(...) takes one expression: %r" % (kind, text), pos)
        if p.peek()[0] != ",":
            break
        p.take()
    return out


def _derive(p, pos):
    _, name, _ = p.take()
    if not _is_param(name) or p.peek()[0] != ":=":
        raise _error(p, "bad derive field", pos)
    p.take()
    return name, p.check(p.expr())


def _record(p):
    """The record that starts at the parser's next token."""
    _, word, start = p.take()
    if word != "identity":
        raise _error(p, "expected 'identity', found %r" % (word or "end of input"), start)
    fields = {"identity": _name(p, start)}
    constraints, derives = [], []
    while True:
        while p.peek()[0] == ";":
            p.take()
        kind, key, pos = p.peek()
        if kind == "EOF" or key == "identity":
            break
        p.take()
        if key in fields:
            raise _error(p, "repeated %r field" % key, pos)
        if key == "params":
            fields[key] = _params(p)
        elif key == "require":
            constraints += _require(p)
        elif key == "derive":
            derives.append(_derive(p, pos))
        elif key in ("lhs", "rhs"):
            fields[key] = p.check(p.expr())
        elif key == "source":
            kind, word, _ = p.take()
            if kind != "STR":
                raise _error(p, "source must be a quoted string", pos)
            fields[key] = word[1:-1]
        else:
            raise _error(p, "unknown field %r" % key, pos)
        kind, word, end = p.peek()
        if kind not in (";", "EOF") and not (key == "source" and word == "identity"):
            raise _error(p, "expected ';' after the %s field, found %r" % (key, word), end)
    for req in ("params", "lhs", "rhs", "source"):
        if req not in fields:
            raise _error(p, "record missing %r field" % req, start)
    ident = IdentityDef(fields["identity"], fields["params"], tuple(constraints),
                        tuple(derives), fields["lhs"], fields["rhs"], fields["source"],
                        p.src[1], p.src[0], start)
    _validate(ident, p, start)
    return ident


def _validate(ident, p, start):
    known = set(ident.params) | {d for d, _ in ident.derives}
    if len(known) != len(ident.params) + len(ident.derives):
        raise _error(p, "derived name collides with a parameter", start)
    trees = [ident.lhs, ident.rhs]
    trees += [ast for _, ast in ident.derives]
    trees += [c.expr for c in ident.constraints if c.kind != "distinct"]
    for tree in trees:
        missing = dsl.free_params(tree) - known
        if missing:
            raise _error(p, "undeclared parameter(s) %s" % ", ".join(sorted(missing)), tree.pos)
        clash = dsl.sum_indices(tree) & known
        if clash:
            raise _error(p, "sum index shadows parameter(s) %s" % ", ".join(sorted(clash)),
                         tree.pos)
    for c in ident.constraints:
        if c.kind == "distinct" and not set(c.expr) <= known:
            raise _error(p, "distinct(...) names an unknown parameter", start)
    seen = set()
    for dname, ast in ident.derives:
        bad = dsl.free_params(ast) - set(ident.params) - seen
        if bad:
            raise _error(p, "derive %r uses %s before definition" % (dname, sorted(bad)),
                         ast.pos)
        seen.add(dname)


def parse_identities(text, where="<string>"):
    """Parse identity records from file text; errors name where and the line."""
    p = dsl._Parser(text, where)
    records = []
    while True:
        while p.peek()[0] == ";":
            p.take()
        if p.peek()[0] == "EOF":
            return records
        records.append(_record(p))


def builtin_text():
    return resources.files("qtheta").joinpath("data/builtin.qid").read_text(encoding="utf-8")


def load_registry(paths=()):
    """Built-in corpus plus identities from the given files; names unique."""
    texts = [("builtin corpus", builtin_text())]
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            texts.append((str(path), fh.read()))
    idents, seen = [], set()
    for where, text in texts:
        for ident in parse_identities(text, where):
            if ident.name in seen:
                raise RegistryError("%s: duplicate identity name %r" % (ident.locate(), ident.name))
            seen.add(ident.name)
            idents.append(ident)
    return idents
