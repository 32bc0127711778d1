"""Output bytes pinned by digest.

The SHA-256 of ``layout --svg``, ``--json`` and the ``--metrics`` stdout on
six seeded graphs, under no flag and under ``--no-bundle-cross``, and on one
many-lane graph (a path of 400 with 200 lanes in one stack) under no flag.
``chains-1`` is also pinned under ``--no-bundle-transitive``, ``--no-compact``
and ``--no-reorder``, and ``cyclic-1`` under the first two, so hidden
transitive edges, topological rows and unreordered stacks each have a
digest (``cyclic-1`` draws the same SVG with and without reordering). Two
edgeless graphs, of 0 and 1 vertices, pin the documents whose vertex, edge
and bundle lists are empty. A change meant to keep output identical (a
faster loop, a refactor) must leave every digest as it is; a change that
alters output on purpose updates this table and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from oracles import chains_dag, cyclic_digraph_edges, many_lane_dag, uniform_dag_edges
from pathdraw.cli import main


def _case(name: str) -> tuple[int, list[tuple[int, int]], tuple | None]:
    """(vertex count, edges in file order, paths or None) for one input."""
    if name == "uniform-1":
        return 300, uniform_dag_edges(300, 480, seed=1), None
    if name == "uniform-2":
        return 250, uniform_dag_edges(250, 600, seed=2), None
    if name.startswith("chains-"):
        seed = int(name[-1])
        g, d = chains_dag(4 + seed, 50, seed)
        return g.vertex_count, list(g.edges), d.paths
    if name == "many-lane":
        g, d = many_lane_dag(400)
        return g.vertex_count, list(g.edges), d.paths
    if name == "cyclic-1":
        return 300, cyclic_digraph_edges(300, 600, seed=1), None
    if name == "cyclic-2":
        return 200, cyclic_digraph_edges(200, 500, seed=2), None
    if name.startswith("edgeless-"):
        return int(name[-1]), [], None
    raise KeyError(name)


def outputs(name: str, flags: list[str], directory) -> dict[str, str]:
    """Digests of the SVG file, the JSON file and stdout of one ``layout`` run."""
    n, edges, paths = _case(name)
    source = directory / f"{name}.edges"
    source.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges), encoding="ascii")
    argv = ["layout", str(source)]
    if paths is not None:
        path_file = directory / f"{name}.paths"
        path_file.write_text("".join(" ".join(map(str, p)) + "\n" for p in paths))
        argv += ["--paths", str(path_file)]
    svg, doc = directory / "out.svg", directory / "out.json"
    assert main([*argv, "--svg", str(svg), "--json", str(doc), "--metrics", *flags]) == 0
    return {
        "svg": hashlib.sha256(svg.read_bytes()).hexdigest(),
        "json": hashlib.sha256(doc.read_bytes()).hexdigest(),
    }


FLAGS = {
    "default": [],
    "no-bundle-cross": ["--no-bundle-cross"],
    "no-bundle-transitive": ["--no-bundle-transitive"],
    "no-compact": ["--no-compact"],
    "no-reorder": ["--no-reorder"],
}

DIGESTS: dict[tuple[str, str], dict[str, str]] = {
    ("uniform-1", "default"): {
        "svg": "48f3830ff592c61e937f646e59ad25ae060e972ff5d225fbfa7b53c75a642993",
        "json": "a3acaa89340bb2ad5b49de1da13b5db648140fd9bbdf4222d9d2c045e9401dcc",
        "metrics": "2b8a9da6273372814f2039465fd5e26f5276420265d07ab5423497bcc007a4a0",
    },
    ("uniform-1", "no-bundle-cross"): {
        "svg": "feb2aa16c01382cd0f18dfc39874c454fbb29783f5ba7fef99e88fb953f56a21",
        "json": "3fbfb1cffe13df212fafcdc11633fb738a512680e7e087bf3dcce0fb241f7b66",
        "metrics": "9fd6e4e6d6a48564d52ab812781fd9541d54dcea6596acd0b7f3cb3add4e893d",
    },
    ("uniform-2", "default"): {
        "svg": "9827bb5f28b1a6203c175b1085b96dd94f05e406afadc17edaec0a578a14982d",
        "json": "6b19d15aacf1982f689c57a39dcc87722b7b12cbc2240c5256f9bffacdf8153b",
        "metrics": "1a61df0b079054f34147467702d18202a03ebbd35c553a63286231072a13b0ef",
    },
    ("uniform-2", "no-bundle-cross"): {
        "svg": "da67fd296b220b38e0030d08445d19baddd992177590b5e30032cb7ea01ea40c",
        "json": "242f1fd897061f744b9fe56829a5a7c34a542211b5a63f6714a71e781f434fde",
        "metrics": "e0b5eea94f122d7bacda92df1f2fbc6ba8d84aafb07a503041bc79940476b266",
    },
    ("chains-1", "default"): {
        "svg": "05b1b451b93bff86b1a531b35cc2b75ef48396f45f2c9a4335fd1c6bbf527bc0",
        "json": "d9f7824c1f7144cc08984405a15846e8118d6c250a24672ffbcba500d7bb11b7",
        "metrics": "c66eedd89549dd93f3d0ea43e791b8bd6a92040f3e60b907fcdac7e2e2bbb379",
    },
    ("chains-1", "no-bundle-cross"): {
        "svg": "3090379a9f3f011efba723dd23b0d0ba43e2b78d0142141433ef99054636c9d7",
        "json": "be7ea8a631a46149544e1176a058e966dd86363679d64d27730b322552fb53fc",
        "metrics": "6f71ec27d005d0c5920523b3c3f8c40261b860c8b564a350da77e4abd991f464",
    },
    ("chains-1", "no-bundle-transitive"): {
        "svg": "cb0ed28b360a3410a22b177ad437c08d573d48786b9de1d58aa7869950c19add",
        "json": "e3b08845cf7ea9ecaa9b6d6e386407bf4d95b6f88373c4105c374ef2b5144456",
        "metrics": "8858c4cf1ac731bd71427ff9fba8a581b1d3f7850d7182fe2566c1b033bab081",
    },
    ("chains-1", "no-compact"): {
        "svg": "5e52f844cd44762d238bb2566d9f1d3ae9c2ebb6f57c02b4bccc863f69da5415",
        "json": "34d677bfefc2605e05214c93621b7e9aa42d31ff11ce84f6fdcb7caaf5b5af9c",
        "metrics": "fdaf87f8e9c09c53e54f37aaf45fefae9c1ea1004c592174b9d9556dd0aa51d8",
    },
    ("chains-1", "no-reorder"): {
        "svg": "4387dd5a18f4d06d01577d1094ee1d42fcc8a373221600aca15d475f3ecc2d80",
        "json": "affb7a5bdc5f7d03dc61bc96503b338b395020c0f78eaa837a3b1c5d926836fc",
        "metrics": "a5e7c9395b79e77979d28e1a4f6e82c1474e1c7c93c4bb1c08a10e3fd0758ef6",
    },
    ("chains-2", "default"): {
        "svg": "e4b65f466983780d4bebb732c7e82c5311928653d99895c3d49a2b1653d39dc8",
        "json": "3b17450e874a5106db46ffedf0a9830f4599a108a3c75f706df86c7d9ef42ab2",
        "metrics": "34cef38393c314a64a76228f76b5c284d3f751e1f51d863263468c8aa3cb312c",
    },
    ("chains-2", "no-bundle-cross"): {
        "svg": "5627f1d077686b36dd8e6ed4e901ca1aa901de9c2116022aa023c34a1a9a3fd2",
        "json": "68854e8505fa43b22761bc0896a9f6ad8f4d118a641653102193f7946798c91f",
        "metrics": "803e5627281f44ab3b7451a4781f2ceaec56452539e8ed1ff0fb3ab5a151bc7b",
    },
    ("many-lane", "default"): {
        "svg": "882f78b2e3906222676a82db9b49a8c1b1da52134b4bcfd377ff73da5ff84afa",
        "json": "4b8202914dd84cf1b51687c9da729b8a264a89265cdd07904cf9b39bc760d3d4",
        "metrics": "62af076c15e4ea74bb342945aab95b5ecd9f3b8236be081ded8cef51300437ef",
    },
    ("cyclic-1", "default"): {
        "svg": "49851f798fc631bab2b1bceb0bac1f4b0863bb8cb11b45cb1d288e3693c93042",
        "json": "34a15e61670b79f619a8b7b2e5b0dbed94def17757f344a37606dcae0084e44c",
        "metrics": "462515d7f3a4747a9f7e378d5985268d0ee41ebce98c2ac01b14b85f125c35e9",
    },
    ("cyclic-1", "no-bundle-cross"): {
        "svg": "cb0c27636bf7a0f577c75dad97d4d746017d1fdc82cfb77d5461f284cf243e96",
        "json": "526211cba91b79b2cba25511a81ecbc123a44cdee82e0d01e904f736a87c9c19",
        "metrics": "411ea0cbea034ff64e2bb4b6c8bbe74568542d1b6c02ac6a044a7ed7fbba6d5d",
    },
    ("cyclic-1", "no-bundle-transitive"): {
        "svg": "abc2f0681c72d7a8b9440d74458dbd02e80024fc67dc4e662bf57d0881d4e243",
        "json": "dd85f26e13975fe6253a079e92e2844b9733aacfbc287477a9628b505d5e8274",
        "metrics": "c19171295bfefa93f943e9908b3244838cb2c6671bbb8fa5ad39834a448001f4",
    },
    ("cyclic-1", "no-compact"): {
        "svg": "d4eaccd401d57bd09a313edd5b819b76a88cef57f2b2e7143156444644401a1c",
        "json": "ffc06d8dc6c64c1b4fa7df94c841990619ebe5bd70e392d0aaff987fb6aa6e50",
        "metrics": "58b065c08640a26a5ffbb68b24a1f7d33454202c451030af50f73802ac02a287",
    },
    ("cyclic-2", "default"): {
        "svg": "9e540c433d3dbe8c483bb5a1c2271a06d8c2eb20aad44e734f1473d3b337f3c0",
        "json": "7bb4a447983ba8bb8d20318e589cd1a7f4b072c7c5dc305d741a34aed6f53bcc",
        "metrics": "b9aea819ede1d85abcb8a61b68fe72646917725d92b48bb6b6e75982f433479a",
    },
    ("cyclic-2", "no-bundle-cross"): {
        "svg": "57c6d145b32cee9ba49690cfac707d1b96aab72000447c94c2aaf898befcbfd9",
        "json": "132843aacd2c8ba3a341467b2a7d8cd243b6513db110e76a15dee4ec727fe902",
        "metrics": "470a96e982e8a47ac2b5e1a06e909d907bcedcfd279ea26251861ce4dc15d035",
    },
    ("edgeless-0", "default"): {
        "svg": "a252357cabb00c4542897935da3057425cf84e3f7b8dd28ad8709c7b8573bc87",
        "json": "0e4a8d3ad376981ab7fa6fc97149b41126bd714908b71f4651cd2859e28c96d5",
        "metrics": "66059d9209f01e54cb99fa255a1ad6d63e0faec07022f3f912dfc7503614b8e7",
    },
    ("edgeless-1", "default"): {
        "svg": "11a2089f0c7685845f81b8b6153f985c1e2c6296ec84de3c5be15058c897cada",
        "json": "51b6aae7fe90956834d1d95b5c6382f4a557050c5f859b52af687fd449f703e5",
        "metrics": "d3c4fdd69338caf7e6e8336f0c0645d3a788c9cbf9154f6a98bdfc53655e2d97",
    },
}


@pytest.mark.parametrize("name, flag_set", sorted(DIGESTS))
def test_output_bytes_match_recorded_digests(name, flag_set, tmp_path, capsys):
    got = outputs(name, FLAGS[flag_set], tmp_path)
    got["metrics"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == DIGESTS[(name, flag_set)]
