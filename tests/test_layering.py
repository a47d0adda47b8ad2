"""The oracles share no code with the optimized paths they check.

Reads the sources with ``ast``, so nothing here imports or runs the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qtorus"


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def names_in(node):
    """Every bare name and attribute name used under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def imported_modules(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # also "from . import x"
            out.update(alias.name for alias in node.names)
    return out


def test_cochain_oracle_avoids_optimized_paths():
    tree = parse("cochain")
    modules = {m.rpartition(".")[2] for m in imported_modules(tree)}
    assert not modules & {"gerbe", "lattice", "forms"}
    forbidden = {
        "handles",
        "build_complex",
        "fox_derivative",
        "cohomology_presentations",
    }
    assert not names_in(tree) & forbidden


def test_cochain_reads_only_the_monodromy_off_a_local_system():
    # the oracle reads a letter's matrix by index off mon or mon_inv, so no
    # letter or word API, handle record or differential of surface reaches
    # it; a local system it takes is read by attribute or handed to another
    # function of cochain, which this test reads too
    tree = parse("cochain")
    own = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    read, params = set(), 0
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for arg in func.args.args:
            if getattr(arg.annotation, "id", None) != "LatticeLocalSystem":
                continue
            params += 1
            bases, passed = set(), set()
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == arg.arg:
                    read.add(node.attr)
                    bases.add(id(node.value))
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in own:
                    passed |= {id(a) for a in node.args if getattr(a, "id", None) == arg.arg}
            uses = {
                id(node)
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and node.id == arg.arg and isinstance(node.ctx, ast.Load)
            }
            assert uses <= bases | passed, func.name
    assert params >= 2  # checked_classes and the transport table
    assert read and read <= {"mon", "mon_inv", "rank", "genus"}, read


def test_fraction_free_rank_uses_no_lattice_function():
    lattice_functions = {
        node.name for node in parse("lattice").body if isinstance(node, ast.FunctionDef)
    }
    assert {"smith_normal_form", "_gauss_jordan", "det", "inverse_unimodular"} <= lattice_functions
    (func,) = [
        node
        for node in parse("surface").body
        if isinstance(node, ast.FunctionDef) and node.name == "_fraction_free_rank"
    ]
    assert not names_in(func) & lattice_functions


def test_smith_form_takes_only_the_matrix():
    # a transform is built when it is first read, so no call opts out of one
    calls = [
        (path.name, node.lineno, len(node.args), [kw.arg for kw in node.keywords])
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "smith_normal_form" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    # d0, d1 and x for the cohomology (x in SnfResult.subquotient), and the
    # independent check's H2; gerbe counts Heisenberg blocks over Z/N
    assert len(calls) == 4
    assert [c for c in calls if c[2:] != (1, [])] == []


def test_heisenberg_count_shares_no_rank_code():
    # the block count reduces mod N and needs no integer Smith form; its one
    # exact rank is its own, so the report path shares no rank code with the
    # H0 oracle's _fraction_free_rank, and no second rank route comes back
    tree = parse("gerbe")
    assert not names_in(tree) & {
        "smith_normal_form",
        "_fraction_free_rank",
        "_rank_mod_prime",
        "_bareiss_rank",
    }
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert (1 << 61) - 1 not in constants
    assert 61 not in constants  # nor spelled as a shift or a power


def methods(module, cls_name, names):
    """The named methods of a class, read off the module's source."""
    (cls,) = [
        node for node in parse(module).body if isinstance(node, ast.ClassDef) and node.name == cls_name
    ]
    found = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name in names]
    assert sorted(f.name for f in found) == sorted(names)
    return found


def test_h1_route_forms_no_dense_product():
    # a Smith form's operation log is replayed onto the matrix that needs it:
    # no inverse transform is built and no product with one is formed
    funcs = methods("lattice", "SnfResult", {"quotient", "subquotient"})
    funcs += methods("surface", "CohomologyPresentations", {"h1"})
    for func in funcs:
        assert not [n for n in ast.walk(func) if isinstance(n, ast.MatMult)], func.name
    found = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in ("uinv", "vinv")
        if name in path.read_text()
    ]
    assert found == []


def test_smith_form_logs_stay_in_lattice():
    # only SnfResult replays its logs: kernel vectors, quotients and
    # subquotients are asked of it, so no other module reads a log or
    # imports lattice's private replay helpers
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text())
        found += [(path.name, name) for name in names_in(tree) & {"row_ops", "col_ops"}]
        found += [
            (path.name, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "lattice"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert found == []
    assert "_quotient_with_generators" not in top_level_names(parse("lattice"))
    # kernel vectors cross into surface as {coordinate: entry} rows, not as an
    # IntMatrix, and h0_basis lays out only H^0's r-long vectors as lists
    funcs = methods("lattice", "SnfResult", {"kernel_basis"})
    funcs += methods("surface", "CohomologyPresentations", {"h0_basis"})
    assert [ast.unparse(f.returns) for f in funcs] == ["list[_Row]", "list[list[int]]"]


def test_gerbe_holds_no_fractions():
    # omega and chi leave gerbe as integer residues over the report's
    # denominator N; only cli writes a residue as a Q/Z fraction
    tree = parse("gerbe")
    names = names_in(tree) | {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.alias, ast.ClassDef, ast.FunctionDef))
    }
    assert not names & {"Frac1", "_Residues"}


def test_forms_store_one_matrix_over_one_denominator():
    # a form holds its integer numerators over one denominator, and a
    # refinement the quadratic form it derives; no Frac1 copy beside them
    slots = {}
    owners = {"forms": {"QuadraticForm", "SymmetricForm"}, "braided": {"BraidedData"}}
    for module, names in owners.items():
        for node in parse(module).body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__slots__":
                        slots[node.name] = set(ast.literal_eval(stmt.value))
    assert set(slots) == {"QuadraticForm", "SymmetricForm", "BraidedData"}
    for name, fields in slots.items():
        assert fields <= {"rank", "quad", "denominator", "numerators"}, name


def test_forms_build_frac1_only_at_the_edges():
    # forms and braided build a Frac1 (by its constructor or by scaling one)
    # inside Frac1 itself or as a value a function returns
    for module in ("forms", "braided"):
        tree = parse(module)
        allowed = set()
        for node in ast.walk(tree):
            in_frac1 = isinstance(node, ast.ClassDef) and node.name == "Frac1"
            if in_frac1 or isinstance(node, ast.Return):
                allowed.update(map(id, ast.walk(node)))
        built = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "Frac1")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "scale")
            )
        ]
        assert built, module
        assert [ast.unparse(node) for node in built if id(node) not in allowed] == [], module


def test_omega_forms_no_dense_product():
    # W = G^T P G is scattered from P's nonzero entries over the generators'
    # supports; IntMatrix's dense @ stays the plain product the cochain
    # oracle's transport table forms, one per boundary prefix
    funcs = [
        node
        for node in parse("gerbe").body
        if isinstance(node, ast.FunctionDef) and node.name in {"omega_numerators", "_omega"}
    ]
    assert len(funcs) == 2
    for func in funcs:
        assert not [n for n in ast.walk(func) if isinstance(n, ast.MatMult)], func.name



def test_omega_builds_no_int_matrix():
    # P and W stay {column: entry} rows from the relator to the report: the
    # functions that build and read them construct no IntMatrix, so neither
    # is ever held dense or converted to and fro
    funcs = {
        node.name: node
        for node in parse("gerbe").body
        if isinstance(node, ast.FunctionDef)
        and node.name in {"_pairing_gram", "_tmul", "_mul", "omega_numerators", "_omega"}
    }
    assert len(funcs) == 5
    for name, func in funcs.items():
        built = [
            node.func
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and (
                getattr(node.func, "id", None) == "IntMatrix"
                or getattr(node.func, "attr", None) in {"from_rows", "from_columns", "zeros"}
            )
        ]
        assert built == [], name

def zero_filled(node):
    """Whether ``node`` is a list repeated by ``*``, as ``[0] * n`` is."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(isinstance(side, ast.List) for side in (node.left, node.right))
    )


def test_generator_rows_are_built_sparse():
    # H^1's generators stay {coordinate: entry} rows from the Smith logs to
    # omega: the replay, the SnfResult methods that call it and the W
    # product form no zero-filled row, lay out no identity or zero matrix and
    # read no transform or dense row list
    funcs = methods("lattice", "SnfResult", {"kernel_basis", "quotient", "subquotient"})
    for module, name in (("lattice", "_replay"), ("gerbe", "omega_numerators")):
        funcs += [n for n in parse(module).body if isinstance(n, ast.FunctionDef) and n.name == name]
    assert len(funcs) == 5
    dense_attrs = {"identity", "zeros", "u", "v", "row_lists", "from_rows", "from_columns"}
    for func in funcs:
        for node in ast.walk(func):
            identity_rows = isinstance(node, ast.Name) and node.id == "_identity_rows"
            dense = isinstance(node, ast.Attribute) and node.attr in dense_attrs
            assert not (zero_filled(node) or identity_rows or dense), (func.name, ast.unparse(node))


def test_heisenberg_count_builds_no_dense_row():
    # omega is W's checked {column: residue} rows from _omega on, and both
    # eliminations read the one list of rows that _heisenberg_dimensions
    # cuts from them: none of the four forms a zero-filled row, copies a
    # dense row or builds an IntMatrix
    tree = parse("gerbe")
    names = {"_omega", "_heisenberg_dimensions", "_order_mod", "_lift_rank"}
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
    assert sorted(d.name for d in defs) == sorted(names)
    for func in defs:
        for node in ast.walk(func):
            zeros = zero_filled(node)
            whole_copy = (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Slice)
                and node.slice.lower is node.slice.upper is node.slice.step is None
            )
            matrix = isinstance(node, ast.Name) and node.id == "IntMatrix"
            assert not (zeros or whole_copy or matrix), (func.name, ast.unparse(node))


def test_omega_has_no_dense_row_helper():
    # the W product scatters into dicts over supports; the helper that summed
    # x * row over whole dense rows of G and PG is gone
    tree = parse("gerbe")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "omega_numerators" in defined
    assert "_combine" not in defined | names_in(tree)


def test_every_error_class_is_raised():
    # an error class that nothing in the package raises is dead API, and its
    # code can never reach a CLI payload
    classes = {"QtorusError"}
    for node in parse("errors").body:  # a class comes after its bases
        if isinstance(node, ast.ClassDef) and {getattr(b, "id", None) for b in node.bases} & classes:
            classes.add(node.name)
    classes.discard("QtorusError")
    assert {"NonUnimodular", "BadJobSpec"} <= classes
    raised = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    raised |= names_in(node.exc)
    assert sorted(classes - raised) == []


def test_value_classes_share_one_immutability_base():
    # _Frozen alone refuses assignment, and only the classes the package
    # compares by value define equality and hashing
    defined = {"__setattr__": set(), "__eq__": set(), "__hash__": set()}
    for path in SRC.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:  # a def, or an assignment such as "__hash__ = None"
                    names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
                    for name in {getattr(node, "name", None), *names} & defined.keys():
                        defined[name].add(cls.name)
    assert defined["__setattr__"] == {"_Frozen"}
    assert defined["__eq__"] | defined["__hash__"] == {"IntMatrix", "Frac1", "FgAbGroup"}


def test_selfcheck_checks_the_report_route():
    # the package has one closed form of omega: reports (through _omega) and
    # selfcheck both call omega_numerators, and selfcheck reads its raw W
    # rather than the checked omega, so a wrong W is a mismatch record
    (omega,) = [
        node
        for node in parse("gerbe").body
        if isinstance(node, ast.FunctionDef) and node.name == "_omega"
    ]
    assert "omega_numerators" in names_in(omega)
    selfcheck = names_in(parse("selfcheck"))
    assert "omega_numerators" in selfcheck
    assert not selfcheck & {"_omega", "commutator_pairing", "block_report"}
    deleted = ("LetterVectors", "letter_vectors", "pairing_on_letters", "pairing_on_cocycles")
    found = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in deleted
        if name in path.read_text()
    ]
    assert found == []


def test_selfcheck_reaches_the_closed_route_through_omega_numerators():
    # selfcheck imports one name from gerbe, the public W = G^T P G, and no
    # private name of it; the basis comparison replaces any store of verdicts
    # per pairing, so no pairing's entries are read and no dict is filled in
    # a loop: the only dicts are the mismatch records, with literal keys
    tree = parse("selfcheck")
    from_gerbe = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gerbe"
        for alias in node.names
    ]
    assert from_gerbe == ["omega_numerators"]
    assert "gerbe" not in names_in(tree)  # no module import to reach it by attribute
    gerbe_private = {
        node.name
        for node in parse("gerbe").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    assert gerbe_private and not names_in(tree) & gerbe_private
    assert not any(isinstance(n, ast.Attribute) and n.attr == "entries" for n in ast.walk(tree))
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.DictComp, ast.SetComp))
        if isinstance(node, ast.Dict):
            assert node.keys and all(isinstance(k, ast.Constant) for k in node.keys)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in {"dict", "set", "lru_cache", "cache"}


def test_selfcheck_has_no_route_in_q_mod_z():
    # selfcheck compares the routes once, in integers, on the symmetric basis:
    # it names no level pairing in Q/Z, neither to compare with nor to record
    tree = parse("selfcheck")
    named = names_in(tree) | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } | {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    banned = {
        "pair_cup", "polarize", "quad_from_bilinear", "Frac1", "_first_disagreement",
        "SymmetricForm", "HALF", "ZERO",
    }
    assert not named & banned


def test_one_cohomology_object_per_local_system():
    # cohomology_presentations is the one cohomology route, and a report
    # holds its triple once: no groups-only route, no pi-named copy of the
    # groups and no wrapper that reruns a report for one of its quantities.
    # "section_space" and "pi2_character" stay as report keys and as the
    # GerbeBlock field, so those two are looked for as code, not as text.
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for name in ("twisted_cohomology", "SectionSpaceInvariants", "commutator_pairing"):
            if name in text:
                found.append((path.name, name))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None)
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in {"section_space", "pi2_character"}:
                found.append((path.name, node.lineno, name))
    assert found == []
    (report,) = [
        node
        for node in parse("gerbe").body
        if isinstance(node, ast.ClassDef) and node.name == "BlockReport"
    ]
    fields = [node.target.id for node in report.body if isinstance(node, ast.AnnAssign)]
    assert fields == [
        "presentations", "denominator", "omega", "radical_rank", "block_dim", "blocks"
    ]


def test_cochain_oracle_exposes_only_what_selfcheck_calls():
    # the oracle keeps the one route selfcheck runs: every public function of
    # cochain is named in selfcheck, so no per-pair entry point grows back
    public = {
        node.name
        for node in parse("cochain").body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public and public <= names_in(parse("selfcheck"))


def test_reports_have_one_json_path():
    # cli's emitter writes every JSON report; an indented json.dumps beside it
    # would bring back the pure-Python encoder as a second path
    calls = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "dumps" in names_in(node.func)
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert calls == []


def test_block_report_has_one_caller():
    # global and bunt are one report, built in one place: a second caller of
    # block_report would be a second copy of the global pipeline
    callers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "block_report" in names_in(node.func)
    ]
    assert callers == ["cli.py"]


def top_level_names(tree):
    """Names a module binds at top level: definitions, assignments and imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).partition(".")[0] for a in node.names)
    return out


def public_names(tree):
    (listed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    return listed


def test_public_api_is_pinned():
    # a new public name takes a deliberate edit here
    assert public_names(parse("__init__")) == [
        "BilinearData", "BlockReport", "BraidedData", "CochainComplexSurface", "Cocycle",
        "CohomologyTriple", "ERROR_SCHEMA", "FgAbGroup", "Frac1", "GerbeBlock", "IntMatrix",
        "InvariantViolation", "LatticeLocalSystem", "LevelInput", "QtorusError", "QuadraticForm",
        "REPORT_SCHEMAS", "SelfCheckResult", "SnfResult", "SymmetricForm", "TriangulatedSurface",
        "block_report", "braiding_phase", "build_complex", "checked_classes",
        "cohomology_presentations", "cup_tensors", "det", "double_braiding", "enumerate_components",
        "evaluate", "invariance_check", "invariants_coinvariants_check", "inverse_unimodular",
        "is_linear", "perturb_refinement", "polarize", "quad_from_bilinear", "run_selfcheck",
        "smith_normal_form", "standard_refinement", "triangulate", "twist",
    ]


def test_all_lists_exactly_the_public_imports():
    # every name in __all__ is imported from a module that defines it, and
    # every public name the package imports is listed
    tree = parse("__init__")
    listed = public_names(tree)
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == {name for name in imported if not name.startswith("_")}
    unresolved = [
        f"{module}.{name}"
        for module, name in imported.values()
        if name not in top_level_names(parse(module))
    ]
    assert unresolved == []


def test_cli_builds_its_parser_at_module_level():
    # main parses with the one parser built when cli is imported; a parser
    # built inside a function would be rebuilt on every call
    def parsers(node):
        return [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and "ArgumentParser" in names_in(n.func)
        ]

    tree = parse("cli")
    top = [
        call
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for call in parsers(stmt)
    ]
    assert len(top) == 1
    assert parsers(tree) == top
