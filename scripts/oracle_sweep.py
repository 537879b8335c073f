#!/usr/bin/env python3
"""Randomized differential sweep: fast pipeline vs the naive evaluator.

Generates random sparse structures (grids, bounded-degree graphs, forests,
planar-ish graphs) with random marks and guided functions, evaluates random
modulo-counting queries through both the elimination pipeline and the naive
evaluator, and reports any disagreement.  Exit status 1 on any mismatch.
"""

import argparse
import json
import random
import sys

from modcheck.elimination import eval_pipeline
from modcheck.logic import eval_naive, free_vars, parse_formula
from modcheck.structures import Graph, GuidedStructure, Signature


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(range(rows * cols), edges)


def random_max_degree_graph(rng: random.Random, n: int, max_deg: int = 4) -> Graph:
    edges = set()
    deg = {v: 0 for v in range(n)}
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or deg[u] >= max_deg or deg[v] >= max_deg:
            continue
        if (min(u, v), max(u, v)) in edges:
            continue
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    return Graph(range(n), edges)


def random_forest_graph(rng: random.Random, n: int) -> Graph:
    edges = []
    for v in range(1, n):
        if rng.random() < 0.85:
            edges.append((rng.randrange(v), v))
    return Graph(range(n), edges)


def random_structure(rng: random.Random, g: Graph, n_marks: int, n_funcs: int) -> GuidedStructure:
    sig = Signature(
        tuple(f"P{i}" for i in range(n_marks)),
        tuple(f"f{i}" for i in range(n_funcs)),
    )
    marks = {
        name: [v for v in g.vertices if rng.random() < 0.4]
        for name in sig.unary_relations
    }
    functions = {}
    for name in sig.unary_functions:
        fmap = {}
        for v in g.vertices:
            nbrs = g.adj[v]
            fmap[v] = rng.choice(nbrs) if nbrs and rng.random() < 0.6 else v
        functions[name] = fmap
    return GuidedStructure(sig, g.vertices, g.edges(), marks, functions)


# query templates over the generated vocabulary; {a}/{b} and {c}/{d} are
# residue/modulus slots filled per instance
TEMPLATES = [
    ("Emod[{a},{b}] y . adj(x, y)", ("x",), 0),
    ("Emod[{a},{b}] y . (P0(y) | adj(x, y))", ("x",), 0),
    ("Emod[{a},{b}] y . (adj(x, y) & !(P1(y)))", ("x",), 0),
    ("Emod[{a},{b}] y . Emod[{c},{d}] z . (adj(y, z) & !(y = z))", (), 0),
    ("Emod[{a},{b}] y . (adj(x, y) & Emod[{c},{d}] z . adj(y, z))", ("x",), 0),
    ("Emod[{a},{b}] y . P1(f0(y))", (), 1),
    ("Emod[{a},{b}] y . (adj(f0(y), x) & P0(y))", ("x",), 1),
    ("Emod[{a},{b}] y . (f0(y) = x | adj(y, x2))", ("x", "x2"), 1),
    ("Emod[{a},{b}] y . (adj(x, y) & adj(y, x2))", ("x", "x2"), 0),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=24)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    mismatches = []
    for trial in range(args.instances):
        kind = rng.randrange(4)
        if kind == 0:
            side = rng.randint(2, max(2, int(args.max_n ** 0.5)))
            g = grid_graph(side, rng.randint(2, side + 1))
        elif kind == 1:
            g = random_max_degree_graph(rng, rng.randint(args.min_n, args.max_n))
        elif kind == 2:
            g = random_forest_graph(rng, rng.randint(args.min_n, args.max_n))
        else:
            g = random_max_degree_graph(rng, rng.randint(args.min_n, args.max_n), max_deg=3)
        text, fv, needs_funcs = rng.choice(TEMPLATES)
        m = random_structure(rng, g, n_marks=2, n_funcs=max(needs_funcs, rng.randrange(2)))
        b = rng.choice((2, 3, 4, 5))
        d = rng.choice((2, 3))
        text = text.format(a=rng.randrange(b), b=b, c=rng.randrange(d), d=d)
        phi = parse_formula(text, m.signature)
        valuation = {v: rng.choice(m.domain) for v in free_vars(phi)}
        fast = eval_pipeline(m, phi, valuation)
        naive = eval_naive(m, phi, valuation)
        if fast != naive:
            mismatches.append(
                {"trial": trial, "query": text, "valuation": valuation, "fast": fast, "naive": naive}
            )

    if args.json:
        print(
            json.dumps(
                {
                    "instances": args.instances,
                    "seed": args.seed,
                    "mismatches": mismatches,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"{args.instances} instances, seed {args.seed}: {len(mismatches)} mismatch(es)")
        for row in mismatches:
            print(f"  trial {row['trial']}: {row['query']} {row['valuation']}"
                  f" fast={row['fast']} naive={row['naive']}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
