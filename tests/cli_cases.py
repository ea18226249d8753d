"""Every contract case of the `l21` command line, as one table.

A case is named by the test id that runs it, ``family[id]`` (or ``family`` for
a family of one), and holds an argv (split at single spaces when it is a
string) and the exit code.  `test_cli.run_case` writes `FILES` and the case's
own ``files`` (text, bytes, or a function that returns the text) into an
empty directory, runs the argv there and checks that stderr holds no
traceback, that exit 2 or 3 prints nothing on stdout and one stderr line led
by the command's name (after argparse's usage text when ``usage`` is set),
and then the case's own checks:

- ``out``: texts stdout holds, in this order; ``out_lacks``: texts it lacks;
- ``err``: texts stderr holds; ``err_lacks``; ``err_is``: the whole of it;
  ``err_max``: stderr is shorter than this many bytes;
- ``sha256``: the digest of each named output file, ``-`` for stdout;
- ``absent``: paths that must not exist afterwards;
- ``timeout``: run in a child capped at 1 GiB of address space, killed after
  this many seconds, instead of in-process.

A string stands for a one-item tuple in ``out``, ``err`` and their kin.  A new
contract check is a new row.
"""

import json
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Dict, Optional, Sequence, Tuple, Union

from planar_l21.graphs import ORIGINAL, Graph, Vertex, to_json
from planar_l21.nae3sat import parse_formula
from planar_l21.pipeline import run_reduction

from conftest import any_rotation, path_graph, star_graph
from test_golden import CERTIFY_STDOUT_HASH, TRACE_HASHES

Texts = Union[str, Tuple[str, ...]]


@dataclass(frozen=True)
class Case:
    name: str
    argv: Union[str, Sequence[str]]
    code: int
    files: Dict[str, object] = field(default_factory=dict)
    out: Texts = ()
    out_lacks: Texts = ()
    err: Texts = ()
    err_lacks: Texts = ()
    err_is: Optional[str] = None
    err_max: Optional[int] = None
    sha256: Dict[str, str] = field(default_factory=dict)
    absent: Texts = ()
    timeout: Optional[float] = None
    usage: bool = False


def edit(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


def decoder_error(text: str) -> str:
    """The message of the error that `json.loads` raises on ``text``."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError("the text decodes")


@cache
def reduced(dimacs: str, k: int) -> str:
    """The instance.json that `l21 reduce --k k` writes for the formula."""
    instance = run_reduction(parse_formula(dimacs), k).instance
    return to_json(instance.graph, instance.rot, k=k)


FORMULA = "p cnf 3 1\n1 2 3 0\n"
UNSAT = "p cnf 1 1\n1 1 1 0\n"
CROSSINGS = "p cnf 4 3\n2 1 4 0\n4 3 2 0\n1 3 4 0\n"  # 20 chord crossings
P3 = to_json(path_graph(3), any_rotation(path_graph(3)), k=4)
LABELS = '{"k": 4, "labels": {"0": 0, "1": 2, "2": 4}}'
CUT = edit(P3, '"edges":[[0,1]', '"edges":[[0,1,2]')[:-20]
FILES = {"f.cnf": FORMULA, "p3.json": P3, "lab.json": LABELS, "star.json": to_json(star_graph(3))}

# the argv of a command that reads a file of the given kind, the file left as {}
READ = {
    "reduce formula": "reduce --input {} --out o",
    "roundtrip formula": "roundtrip --formula {}",
    "solve instance": "solve --instance {}",
    "export instance": "export --input {}",
    "verify instance": "verify --instance {} --labelling lab.json",
    "verify labelling": "verify --instance p3.json --labelling {}",
}
TARGET = {"formula": FORMULA, "instance": P3, "labelling": LABELS}  # the texts of those files
NOUN = {"instance": "graph", "labelling": "labelling"}
SOURCE = {"formula": "f.cnf", "instance": "p3.json"}  # files of `FILES` that `READ` can read
STAGE_FILES = '"files":["formula.cnf","cubic.json","planar.json","aux.json","instance.json","manifest.json"]'
HUGE, LONG, NINES = "9" * 4000, "x" * 5000, "9" * 5000  # int() reads the first, not the last
NESTED = '{"notes": ' + "[" * 100_000 + "]" * 100_000 + "}"
# the instance's span, or the label of vertex 1
OVERLONG = {"instance": edit(P3, '"k":4', f'"k":{NINES}'), "labelling": edit(LABELS, '"1": 2', f'"1": {NINES}')}
DEEP = "b/" * 2000  # 4,000 bytes: under PATH_MAX
QUOTED_NAMES = ['x" ] ; evil [', "back\\", "c"]
QUOTED = to_json(Graph([Vertex(i, ORIGINAL, name) for i, name in enumerate(QUOTED_NAMES)], [(0, 1), (1, 2)]),
                 ports={'p"\\': 2})


def formula_cases(family, id_, text, **checks):
    """The case of one DIMACS text for each of reduce and roundtrip; ``{}`` in
    a check's text stands for the command."""
    return [
        Case(f"{family}[{command}{'-' + id_ if id_ else ''}]", READ[f"{command} formula"].format("bad.cnf"), 2,
             files={"bad.cnf": text}, absent="o",
             **{key: value.format(command) if isinstance(value, str) else value for key, value in checks.items()})
        for command in ("reduce", "roundtrip")
    ]


def reading(name, pair, text, **checks):
    """A case of the command and file kind named by ``pair`` (a key of
    `READ`) reading ``text``, which it refuses."""
    return Case(name, READ[pair].format("bad.json"), 2, files={"bad.json": text}, **checks)


CASES = [
    # reduce
    Case("test_reduce_writes_stage_files", "reduce --k 4 --input f.cnf --out o", 0,
         out=STAGE_FILES, sha256={"o/cubic.json": TRACE_HASHES["f0k4/cubic.json"]}),
    Case("test_reduce_stop_at_cubic", "reduce --k 5 --input f.cnf --out o --stop-at cubic", 0,
         out='"files":["formula.cnf","cubic.json","manifest.json"]'),
    Case("test_reduce_rejects_small_k", "reduce --k 3 --input f.cnf --out o", 2, err="at least 4"),
    Case("test_reduce_rejects_bad_formula", "reduce --input bad.cnf --out o", 2,
         files={"bad.cnf": "p cnf 2 1\n1 2 0\n"}, err="line 2"),
    Case("test_reduce_out_is_a_file_exits_2", "reduce --input f.cnf --out taken --stop-at cubic", 2,
         files={"taken": ""}, err="cannot write"),
    Case("test_cli_contract[reduce span 8]", "reduce --input f.cnf --k 8 --out o", 0,
         sha256={"o/instance.json": TRACE_HASHES["f0k8/instance.json"]}),
    Case("test_cli_contract[reduce 20 crossings]", "reduce --input c.cnf --k 4 --out o", 0,
         files={"c.cnf": CROSSINGS},
         sha256={f"o/{name}": TRACE_HASHES[f"f10k4/{name}"] for name in ("instance.json", "manifest.json")}),
    Case("test_cli_contract[reduce --out 2,000 deep]", "reduce --input f.cnf --out " + DEEP, 0,
         out=STAGE_FILES, sha256={DEEP + "instance.json": TRACE_HASHES["f0k4/instance.json"]}),
    Case("test_cli_contract[reduce --out 3,000 deep]", "reduce --input f.cnf --out " + "b/" * 3000, 2,
         err="reduce: cannot write to 'b/b/", err_max=200),
    Case("test_cli_contract[reduce --out below a file]", "reduce --input f.cnf --out taken/" + DEEP, 2,
         files={"taken": ""}, err="reduce: cannot write to 'taken/b/", err_max=200),
    Case("test_cli_contract[reduce --input 2,000 deep]", "reduce --input " + "a/" * 2000 + "f.cnf --out o", 2,
         err="reduce: cannot read 'a/a/", err_max=200, absent="o"),
    # DIMACS input, to reduce and roundtrip alike
    *formula_cases("test_non_dimacs_number_exits_2", "underscore", "p cnf 3_0 1\n1 2 3 0\n"),
    *formula_cases("test_non_dimacs_number_exits_2", "non-ascii digit", "p cnf \u0663 1\n1 2 3 0\n"),
    *formula_cases("test_non_dimacs_number_exits_2", "plus sign", "p cnf 3 1\n+1 2 3 0\n"),
    *formula_cases("test_overlong_dimacs_number_exits_2", "header", f"p cnf {NINES} 1\n1 2 3 0\n",
                   err_is="{}: line 1: a number too long to read\n"),
    *formula_cases("test_overlong_dimacs_number_exits_2", "literal", f"p cnf 3 1\n1 {NINES} 3 0\n",
                   err_is="{}: line 2: a number too long to read\n"),
    *formula_cases("test_zero_inside_a_clause_exits_2", "", "p cnf 3 1\n1 0 3 0\n",
                   err="line 2: literal 0 before the end of the line"),
    *formula_cases("test_unicode_whitespace_exits_2", "no-break space", "p cnf 3 1\n1\u00a02 3 0\n", timeout=60),
    *formula_cases("test_unicode_whitespace_exits_2", "U+001C", "p cnf 5 2\n1 2 3 0\x1c5 1 1 0\n"),
    # a lone \r does not end a DIMACS line, so line 2 holds eight numbers
    *formula_cases("test_lone_carriage_return_exits_2", "", "p cnf 5 2\n1 2 3 0\r5 1 1 0\n"),
    *[
        Case(f"test_crlf_formula_exits_0[{command}]", READ[f"{command} formula"].format("crlf.cnf") + " --k 4", 0,
             files={"crlf.cnf": b"p cnf 3 1\r\n1 2 3 0\r\n"}, out=f'"command":"{command}"')
        for command in ("reduce", "roundtrip")
    ],
    *[
        Case(f"test_dimacs_structure_errors_name_the_line[{id_}]", "reduce --input bad.cnf --out o", 2,
             files={"bad.cnf": text}, err_is=f"reduce: {message}\n")
        for id_, text, message in [
            ("second header", "p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "line 2: duplicate header"),
            ("no header", "c a comment and nothing else\n", "line 1: missing header"),
            ("no closing 0", "p cnf 3 1\n1 2 3\n", "line 2: clause line must end with 0"),
        ]
    ],
    # roundtrip
    Case("test_roundtrip_satisfiable", "roundtrip --formula f.cnf --k 4", 0, out='"ok":true', err="verified"),
    # span 5 is the one G_k whose interior is read off its own certifying walk (G_5's)
    Case("test_cli_contract[roundtrip span 5]", "roundtrip --formula f.cnf --k 5", 0, out='"ok":true'),
    Case("test_cli_contract[roundtrip span 16]", "roundtrip --formula f.cnf --k 16", 0, out='"ok":true', timeout=120),
    Case("test_roundtrip_unsatisfiable", "roundtrip --formula unsat.cnf --k 4 --budget 20000", 0,
         files={"unsat.cnf": UNSAT}, out='"satisfiable":false'),
    Case("test_roundtrip_recovers_a_variable_that_occurs_only_negated", "roundtrip --formula neg.cnf --k 4", 0,
         files={"neg.cnf": "p cnf 3 1\n-1 2 3 0\n"},
         out=('"ok":true', '"recovered_assignment":{"1":false,"2":false,"3":false}')),
    # 2^29 assignments to scan: the budget stops it long before
    Case("test_roundtrip_budget_bounds_the_brute_force_oracle", "roundtrip --formula wide.cnf --k 4 --budget 1000", 2,
         files={"wide.cnf": "p cnf 30 1\n1 1 1 0\n"}, err="1000 assignments", timeout=30),
    Case("test_roundtrip_over_capacity_exits_2", "roundtrip --formula wide.cnf", 2,
         files={"wide.cnf": "p cnf 31 1\n1 2 31 0\n"}, err="brute-force limit"),
    Case("test_roundtrip_rejects_small_k", "roundtrip --formula f.cnf --k 3", 2,
         err_is="roundtrip: k must be at least 4, got 3\n"),
    Case("test_cli_contract[roundtrip satisfiable --budget -2]", "roundtrip --formula f.cnf --k 4 --budget -2", 2,
         err="budget"),
    # At k = 10^5 the one-clause instance would hold about 4.8e12 vertices.
    *[
        Case(f"test_a_huge_span_instance_is_refused_before_it_is_built[{command}]",
             READ[f"{command} formula"].format("f.cnf") + " --k 100000", 2, timeout=60,
             err_is=f"{command}: a span-100000 instance would exceed 2097152 vertices\n")
        for command in ("reduce", "roundtrip")
    ],
    *[
        Case(f"test_negative_span_or_budget_exits_2[{id_}]", argv, 2, files={"unsat.cnf": UNSAT}, err=message)
        for id_, argv, message in [
            ("argv0-span", "solve --instance p3.json --k -1", "span"),
            ("argv1-budget", "solve --instance p3.json --k 4 --budget -3", "budget"),
            ("argv2-budget", "roundtrip --formula unsat.cnf --budget -2", "budget"),
        ]
    ],
    *[
        Case(f"test_integer_option_takes_ascii_digits_only[{pair.split()[0]} {option} {value}]",
             [*READ[pair].format(SOURCE[pair.split()[1]]).split(" "), option, value], 2,
             err="invalid integer", absent="o", usage=True)
        for pair, option, value in [
            ("reduce formula", "--k", "\u0664"),
            ("solve instance", "--k", "+4"),
            ("solve instance", "--budget", "1_000"),
            ("roundtrip formula", "--k", "\u0664"),
            ("roundtrip formula", "--budget", "1_000"),
            ("roundtrip formula", "--budget", " 1000"),
        ]
    ],
    # certify
    # the whole stdout: one passing report each of H, ClauseK, UncrossU and Gk,
    # in that order, with Hprime before Gk from k = 6
    Case("test_certify_small_range", "certify --k 4..4", 0,
         sha256={"-": "4f522bb124578305ac5e242f7dd16dc855442b83d506281f51817c806afb972f"}),
    Case("test_certify_includes_hprime_from_k6", "certify --k 6..6", 0,
         sha256={"-": "5f5ebe2bd5a39b3dd8db1b4e03aa06d3e2527aa1cff9164991dd5a1eb968f5c8"}),
    Case("test_cli_contract[certify 4..8]", "certify --k 4..8", 0, sha256={"-": CERTIFY_STDOUT_HASH}),
    # every lemma at every span up to the cap, H' from k = 6
    Case("test_cli_contract[certify 4..32]", "certify --k 4..32", 0, err_is="certify: all 59 reports pass\n",
         timeout=60),
    Case("test_certify_capacity_exit", "certify --k 33..33", 2, err="certification supports"),
    Case("test_cli_contract[certify 4..33]", "certify --k 4..33", 2,
         err_is="certify: H' certification supports 6 <= k <= 32\n"),
    # the capacity check reads each certifier's k range at its ends, so nothing
    # that grows with hi is built before the refusal
    Case("test_certify_refuses_a_huge_range_before_building_per_k_tasks", "certify --k 4..1000000000", 2,
         err_is="certify: H' certification supports 6 <= k <= 32\n", timeout=60),
    # each bound must be ASCII -?[0-9]+, as a DIMACS number must; int() takes all
    # of these but the last two, whose 5,000 digits are more than it converts
    *[
        Case(f"test_certify_k_range_takes_ascii_digits_only[{k_range}]", ["certify", "--k", k_range], 2,
             err="bad k range", err_max=200)
        for k_range in ["\u0664..\u0664", "4..\u0665", "+4..4", " 4..4", "0_4..4", "4..4\n",
                        "4.." + NINES, NINES + "..4"]
    ],
    Case("test_certify_k_range_out_of_order_quotes_a_short_prefix", f"certify --k {HUGE}..4", 2,
         err_is="certify: k range must satisfy 4 <= lo <= hi, got " + "9" * 32 + "...\n"),
    # solve
    Case("test_solve_without_any_k_exits_2", "solve --instance star.json", 2,
         err_is="solve: no k given and none recorded in the instance\n"),
    Case("test_cli_contract[solve a reduced instance]", "solve --instance i.json --budget 2000", 0,
         files={"i.json": partial(reduced, FORMULA, 4)}),
    Case("test_cli_contract[solve budgeted trajectory]", "solve --instance i.json --budget 2000", 0,
         files={"i.json": partial(reduced, UNSAT, 4)}, out='"nodes": 2001, "outcome": "exhausted"'),
    # the star K1,3 at k = 10^6 is labelled after one node per vertex; a gap
    # table with an entry for every domain would need 2^(k+1) of them
    Case("test_solve_at_a_huge_span_builds_no_dense_table", "solve --instance star.json --k 1000000 --budget 100", 0,
         out='"nodes": 4, "outcome": "sat"', err_is="solve: sat after 4 nodes\n", timeout=60),
    # 1 << (k + 1) overflows at k = 10^20 and exhausts memory at k = 2^62
    *[
        Case(f"test_solve_refuses_a_huge_span_before_building_a_mask[{id_}]", "solve --instance i.json" + argv, 2,
             files={"i.json": edit(P3, '"k":4', f'"k":{file_k}')}, timeout=60,
             err_is="solve: labelling search supports spans up to 16777216\n")
        for id_, argv, file_k in [
            ("k=10^20", f" --k {10**20}", 4), ("k=2^62", f" --k {2**62}", 4), ("file k=10^30", "", 10**30)
        ]
    ],
    # verify
    reading("test_verify_out_of_range_label_exits_2", "verify labelling", '{"k": 4, "labels": {"0": 9}}',
            err="outside [0,4]"),
    *[
        reading(f"test_verify_checks_labelling_against_instance[doc{i}-{message}]", "verify labelling", json.dumps(doc),
                err=message, err_lacks="set_int_max_str_digits")
        for i, (doc, message) in enumerate([
            ({"k": 10, "labels": {"0": 0, "1": 10, "2": 5}}, "outside [0,4]"),  # the instance's k=4 binds
            ({"k": 4, "labels": {"0": 0, "1": 2, "2": 4, "7": 0}}, "vertex 7"),  # not in the instance
            ({"k": 4, "labels": {"0": 0, "1": 2, "2": 4, "01": 0}}, "'01'"),  # vertex 1 spelled again
            ({"k": 4, "labels": {"0": 0, "1": 2, "2": 4, NINES: 0}}, "key holds an integer too long to read"),
            ({"k": 4, "labels": {"0": 0, "abc": 0}}, "labelling JSON label key 'abc' is not a canonical vertex id"),
        ])
    ],
    # lambda(K1,3) = 4, so no span-3 labelling of the star is valid
    *[
        Case(f"test_verify_rejects_non_integer_labelling_exits_2[doc{i}-{what}]",
             "verify --instance star.json --labelling bad.json", 2, files={"bad.json": json.dumps(doc)},
             err=f"labelling JSON {what}")
        for i, (doc, what) in enumerate([
            ({"k": 3, "labels": {"0": 0, "1": 2, "2": 2.5, "3": 3}}, "label"),
            ({"k": 3, "labels": {"0": 0, "1": 2, "2": True, "3": 3}}, "label"),
            ({"k": 3.5, "labels": {"0": 0, "1": 2, "2": 3, "3": 4}}, "k"),
        ])
    ],
    # export
    Case("test_export_dot", "export --input p3.json", 0, out="graph g {\n"),
    Case("test_cli_contract[export --format svg]", "export --format svg --input p3.json", 2, err="unsupported format"),
    Case("test_export_dot_escapes_labels", "export --input quoted.json", 0, files={"quoted.json": QUOTED}, out=(
        '  v0 [label="x\\" ] ; evil [", shape=circle];\n',
        '  v1 [label="back\\\\", shape=circle];\n',
        '  v2 [label="p\\"\\\\", shape=circle];\n',
    )),
    Case("test_cli_contract[export 20 crossings]", "export --format dot --input i.json", 0,
         files={"i.json": partial(reduced, CROSSINGS, 4)}, out=" -- ",
         sha256={"-": "bed7e49375e131ed065e1bb52fdd8b1c1f521f3d3d1130c5190caea7fe023e30"}),
    *[
        reading(f"test_graph_ports_must_name_vertices[{id_}]", "export instance",
                edit(P3, '"ports":{}', f'"ports":{ports}'), err="graph JSON port")
        for id_, ports in [("bool", '{"x": true}'), ("array", '[["x", 0]]'), ("foreign vertex", '{"x": 99}'),
                           ("string", '{"x": "a"}'), ("float", '{"x": 1.0}')]
    ],
    *[
        reading(f"test_an_entry_that_is_not_a_pair_is_named[{id_}]", "export instance", edit(P3, old, new),
                err_is=f"export: graph JSON {message} is not a pair\n")
        for id_, old, new, message in [
            ("edge of three", '"edges":[[0,1],[1,2]]', '"edges":[[0,1,1]]', "edge [0, 1, 1]"),
            ("edge of one", '"edges":[[0,1],[1,2]]', '"edges":[[0]]', "edge [0]"),
            ("edge no array", '"edges":[[0,1],[1,2]]', '"edges":[0]', "edge 0"),
            ("entry of three", '"0":[[0,1]]', '"0":[[0,1,2]]', "rotation entry [0, 1, 2]"),
            ("entry of one", '"0":[[0,1]]', '"0":[[0]]', "rotation entry [0]"),
            ("entry no array", '"0":[[0,1]]', '"0":[1]', "rotation entry 1"),
        ]
    ],
    # graph and labelling files, to every command that reads one
    *[
        Case(f"test_unreadable_input_exits_2[{pair.split()[0]}-{option}-{id_}]", READ[pair].format("bad.txt"), 2,
             files={} if content is None else {"bad.txt": content + FORMULA.encode()},
             err=f"{pair.split()[0]}: cannot read 'bad.txt': ")
        for pair, option in [("reduce formula", "--input"), ("roundtrip formula", "--formula"),
                             ("solve instance", "--instance"), ("verify instance", "--instance"),
                             ("verify labelling", "--labelling"), ("export instance", "--input")]
        for id_, content in [("missing", None), ("undecodable", b"\xff")]
    ],
    *[
        reading(f"test_malformed_json_exits_2[{command}]", f"{command} instance", '{"vertices": [',
                err="malformed JSON")
        for command in ("solve", "verify", "export")
    ],
    # the first section (edges) holds an entry of three, and the text is cut
    # short in the last: the decoder's error outranks the shape error
    reading("test_cli_contract[cut-short text with a mis-shaped first section]", "verify instance", CUT,
            err_is=f"verify: malformed JSON: {decoder_error(CUT)}\n"),
    *[
        reading(f"test_{test}_exits_2[{command}-{target}]", f"{command} {target}", text, **checks,
                timeout=60 if command == "export" else None)
        for command, target in [("solve", "instance"), ("export", "instance"), ("verify", "instance"),
                                ("verify", "labelling")]
        for test, text, checks in [
            ("deeply_nested_json", NESTED, {"err_is": f"{command}: {NOUN[target]} JSON nests too deeply\n"}),
            ("overlong_json_integer", OVERLONG[target],
             {"err_is": f"{command}: {NOUN[target]} JSON holds an integer too long to read\n"}),
        ]
    ],
    *[
        reading(f"test_wrong_shape_json_exits_2[{pair.split()[0]}-{text}]", pair, text, err="JSON")
        for pair, text in [
            ("solve instance", "[]"),
            ("solve instance", '{"vertices": [], "edges": [], "k": "4"}'),
            ("export instance", '{"k": 4}'),
            ("verify labelling", '{"k": 4, "labels": []}'),
        ]
    ],
    *[
        reading(f"test_float_vertex_id_exits_2[{command}]", f"{command} instance",
                edit(P3, '{"id":0,', '{"id":0.0,'), err="vertex id")  # export would draw edge v0 -- v1
        for command in ("export", "solve")
    ],
    *[
        reading(f"test_non_canonical_rotation_key_exits_2[{command}{suffix}]", f"{command} instance",
                edit(P3, '"1":[[0,1],[1,2]]', f'"{key}":[[0,1],[1,2]]'),
                err=f"graph JSON rotation key {key!r} is not a canonical vertex id")
        # int("+1") is vertex 1 too; "abc" is no integer at all
        for command in ("export", "solve") for key, suffix in [("+1", ""), ("abc", "-abc")]
    ],
    *[
        reading(f"test_overlong_rotation_key_exits_2[{command}]", f"{command} instance",
                edit(P3, '"1":[[0,1],[1,2]]', f'"{NINES}":[[0,1],[1,2]]'), err_lacks="set_int_max_str_digits",
                err_is=f"{command}: graph JSON rotation key holds an integer too long to read\n")
        for command in ("export", "solve")
    ],
    *[
        reading(f"test_repeated_json_key_exits_2[{id_}]", f"verify {target}", edit(TARGET[target], old, new),
                err="repeats the key")
        for id_, target, old, new in [
            ("label key", "labelling", '"1": 2', '"1": 0, "1": 2'),  # the last label is valid
            ("rotation key", "instance", '"rotation":{', '"rotation":{"1":[[0,1],[1,2]],'),
            ("vertex object key", "instance", '{"id":0,', '{"id":0,"name":"shadow",'),
        ]
    ],
    # a message quotes at most a short prefix of a value from the input
    *[
        Case(f"test_a_message_quotes_a_short_prefix_of_a_huge_value[{id_}]", READ[pair].format("bad") + extra, 2,
             files={"bad": edit(TARGET[pair.split()[1]], old, new)}, err_max=200)
        for id_, pair, old, new, extra in [
            ("label key", "verify labelling", '"1": 2', f'"1": 2, "{LONG}": 0', ""),
            ("rotation key", "export instance", '"1":[[0,1],[1,2]]', f'"+{HUGE}":[[0,1],[1,2]]', ""),
            ("vertex id", "export instance", '{"id":0,', f'{{"id":"{LONG}",', ""),
            ("label value", "verify labelling", '"1": 2', f'"1": "{LONG}"', ""),
            ("graph k", "export instance", '"k":4', f'"k":"{LONG}"', ""),
            ("role", "export instance", '"role":"Original"', f'"role":"{LONG}"', ""),
            ("port name", "export instance", '"ports":{}', f'"ports":{{"{LONG}":99}}', ""),
            ("label", "verify labelling", '"1": 2', f'"1": {HUGE}', ""),
            ("edge endpoint", "export instance", '"edges":[[0,1]', f'"edges":[[0,{HUGE}]', ""),
            ("repeated label key", "verify labelling", '"1": 2', f'"{HUGE}": 0, "{HUGE}": 1, "1": 2', ""),
            ("dimacs clause line", "reduce formula", "1 2 3 0", f"1 2 {LONG} 0", ""),
            ("dimacs header", "reduce formula", "p cnf 3 1", f"p cnf {LONG} 1", ""),
            ("reduce k", "reduce formula", "p", "p", " --k -" + HUGE),
            ("roundtrip budget", "roundtrip formula", "p", "p", " --budget -" + HUGE),
        ]
    ],
]
