"""Assembled certificates: the per-characteristic checklist behind the
cohomological-dimension claim, and the same reports through the CLI.

Run:  python3 demos/07_certificates_and_cli.py
"""
from __future__ import annotations

import json

from veronese import cd_certificate, char_compare, render_json
from veronese.cli import main

# The certificate for the degree-3 Veronese of a plane: for each
# characteristic it checks both toric routes, the height, a localized
# complete intersection at every vertex, and a radical cover; across
# characteristics it checks height constancy, the vanishing graded piece,
# and F-purity at each prime.  Facts taken from the literature are listed,
# not silently assumed.
rep = cd_certificate(2, 3, primes=(2, 3))
d = rep.to_report()
print("kind:                  ", d["kind"])
print("height:                ", d["params"]["height"])
print("cohomological dim.:    ", d["params"]["cohomological_dimension"])
print("checks run:            ", len(d["checks"]))
print("all verdicts true:     ", d["verdict"])
print("cited facts:           ", len(d["cited_facts"]))
print("first check:           ", json.dumps(d["checks"][0]["name"]))

# Heights do not move between characteristic 0 and small primes.
cc = char_compare(targets=((2, 0), (1, 1), (0, 2)), primes=(2, 3, 5))
print("conic heights constant:", cc.params["constant"],
      "heights:", cc.params["heights"])

# The CLI produces the same JSON envelope; exit codes encode the verdict.
print("\n--- CLI: semigroup membership with a witness ---")
code = main(["semigroup", "--generators", "4,0;3,1;1,3;0,4",
             "--target", "4,4"])
print("exit code:", code)

print("\n--- CLI: a failing verdict exits 1 ---")
code = main(["semigroup", "--generators", "4,0;3,1;1,3;0,4",
             "--target", "2,2"])
print("exit code:", code)

# render_json is the single serialization point: stable key order, a
# trailing newline, and no timestamps unless --timing is requested.
print("--- envelope bytes are reproducible ---")
print(render_json(d) == render_json(cd_certificate(2, 3, primes=(2, 3))
                                    .to_report()))
