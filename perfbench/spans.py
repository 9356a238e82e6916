"""Summarise a spans.json written by a traced run.

    python3 perfbench/spans.py .perfbench_out/demo-c2/traced/spans.json

Prints, per traced function, its calls, total and self seconds, and how
many of its calls came from each caller (the nearest traced ancestor), so
that a count can be split by where it is spent.
"""

import argparse
import json
from collections import Counter, defaultdict


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    args = parser.parse_args(argv)
    with open(args.spans) as fh:
        spans = json.load(fh)["spans"]
    by_id = {s[0]: s for s in spans}
    total, child = Counter(), Counter()
    callers = defaultdict(Counter)
    for _, parent, name, start, end in spans:
        total[name] += end - start
        caller = by_id[parent][2] if parent is not None else "-"
        callers[name][caller] += 1
        if parent is not None:
            child[parent] += end - start
    own = Counter()
    for sid, _, name, start, end in spans:
        own[name] += end - start - child[sid]
    print(f"{'function':<34}{'calls':>8}{'total_s':>10}{'self_s':>10}  callers")
    for name in sorted(total, key=total.get, reverse=True):
        calls = sum(callers[name].values())
        who = ", ".join(f"{c} {n}" for c, n in callers[name].most_common())
        print(f"{name:<34}{calls:>8}{total[name]:>10.3f}{own[name]:>10.3f}  {who}")


if __name__ == "__main__":
    main()
