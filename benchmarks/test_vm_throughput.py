"""Ablation: reaction-chain throughput of the reference VM as the number
of parallel trails grows (the paper claims trail bookkeeping is
negligible, promoting fine-grained trails, §2.1)."""

from conftest import publish, record_metrics

from repro.bench import make_fanout
from repro.runtime import Program


def run_reactions(trails: int, events: int = 200,
                  observe: bool = False) -> int:
    program = Program(make_fanout(trails), observe=observe)
    program.start()
    for _ in range(events):
        program.send("A")
    if observe:
        record_metrics(f"vm_throughput_{trails}trails", program.stats())
    return program.sched.reaction_count


def test_vm_throughput(benchmark):
    rows = []
    for trails in (1, 8, 64):
        reactions = run_reactions(trails)
        rows.append((trails, reactions))
    run_reactions(64, observe=True)   # metrics snapshot for BENCH_*.json
    benchmark(run_reactions, 64, 50)
    text = "\n".join(f"{t:3d} trails: {r} reactions"
                     for t, r in rows)
    publish("vm_throughput", text)
    assert all(r == 201 for _, r in rows)
