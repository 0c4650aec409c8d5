"""The package's public surface and its module boundaries."""

import ast
from pathlib import Path

import cfmimo

SRC = Path(cfmimo.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert len(cfmimo.__all__) == len(set(cfmimo.__all__))
    for name in cfmimo.__all__:
        assert hasattr(cfmimo, name), name


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree) -> list:
    """(module, name) pairs of private names this file reads from siblings.

    Covers ``from .x import _y`` and ``x._y`` where ``from . import x``
    bound ``x``.
    """
    siblings = {p.stem for p in SRC.glob("*.py")}
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                bound.update(a.asname or a.name for a in node.names
                             if a.name in siblings)
            found += [(node.module, a.name) for a in node.names
                      if node.module and _private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in bound and _private(node.attr):
            found.append((node.value.id, node.attr))
    return found


def test_no_module_reads_another_modules_private_names():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        reads = _private_reads(ast.parse(path.read_text(), filename=str(path)))
        if reads:
            offenders[path.name] = reads
    assert offenders == {}


def test_oracle_links_read_no_closed_form():
    # the link classes and the pass that runs them take power scales from
    # the closed-form modules and nothing else, so agreement is evidence;
    # the SINR rule the closed forms share is never named in the oracle
    from cfmimo import uplink
    tree = ast.parse((SRC / "oracle.py").read_text())
    links = {node.name for node in tree.body
             if isinstance(node, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id == "_Link"
                     for b in node.bases)}
    assert {"_Uplink", "_Cbf", "_Zfp"} <= links
    scopes = [node for node in tree.body if getattr(node, "name", None)
              in links | {"_Link", "simulate_links"}]
    direct = {a.asname or a.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module in ("uplink", "downlink") for a in node.names}
    reads = set()
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in ("uplink", "downlink"):
                reads.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Name) and node.id in direct:
                reads.add(node.id)
    assert reads <= {"uplink.UplinkPowerControl", "downlink.CbfPowerControl"}

    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert uplink.sinr_from_parts.__name__ not in named | direct
