"""Edge cases: raw DAG documents, disconnected graphs, loader variants."""

import json

import pytest

from treeflow.basic_machines import Dag, MachineError, run_dad
from treeflow.cli import main
from treeflow.fixtures import perfect_tree
from treeflow.hierarchy import load_hierarchy, dump_hierarchy
from treeflow.oracle import NormalizedStore, OracleOp
from treeflow.scenario import ScenarioError, load_scenario
from treeflow.scenario import Scenario, CddScript, dump_scenario


class TestDagDocuments:
    def test_cli_accepts_raw_dag_document(self, tmp_path):
        doc = {
            "root": 1,
            "nodes": [
                {"id": 1, "name": "core", "deps": []},
                {"id": 2, "name": "api", "deps": [1]},
                {"id": 3, "name": "ui", "deps": [1, 2]},
            ],
        }
        p = tmp_path / "dag.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "t.jsonl"
        assert main(["run", "--methodology", "dad", "--hierarchy", str(p),
                     "--out", str(out)]) == 0
        rules = [json.loads(l)["rule"] for l in out.read_text().splitlines()]
        assert rules[-1] == "DA6"

    def test_cli_runs_a_long_chain_away_from_the_root(self, tmp_path):
        n = 3000
        doc = {"root": 1, "nodes": [{"id": i, "deps": [i + 1] if i < n else []}
                                    for i in range(1, n + 1)]}
        p = tmp_path / "chain.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "t.jsonl"
        assert main(["run", "--methodology", "dad", "--hierarchy", str(p),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) < 5 * n
        assert json.loads(lines[-1])["payload"] == {"processed": n}

    def test_unreachable_node_is_an_error(self):
        dag = Dag(
            node_names={1: "root", 2: "floating"},
            deps={1: set(), 2: set()},
            root_id=1,
        )
        # Node 2 depends on nothing but nothing reaches it either.
        with pytest.raises(MachineError, match="unprocessed"):
            run_dad(dag)


class TestCliErrorExits:
    def test_cdd_loop_unbounded_exits_two(self, tmp_path):
        h = perfect_tree(2, 2)
        hier = tmp_path / "h.json"
        hier.write_text(json.dumps(dump_hierarchy(h)))
        sc = Scenario(
            r_max=2,  # doubles as the refinement cap for the iterative machine
            cdd=CddScript(test_failures={0: 1}, refine_iterations={0: 99}),
        )
        sc_file = tmp_path / "sc.json"
        sc_file.write_text(json.dumps(dump_scenario(sc)))
        out = tmp_path / "t.jsonl"
        code = main(["run", "--methodology", "cdd", "--hierarchy", str(hier),
                     "--scenario", str(sc_file), "--out", str(out)])
        assert code == 2
        rules = [json.loads(l)["rule"] for l in out.read_text().splitlines()]
        assert rules[-1] == "CD3a"  # the partial trace ends at the failure


class TestLoaderVariants:
    def test_hierarchy_from_path_string(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(json.dumps(dump_hierarchy(perfect_tree(2, 2))))
        assert len(load_hierarchy(str(p))) == 3

    def test_scenario_from_path(self, tmp_path):
        from pathlib import Path

        p = tmp_path / "s.json"
        p.write_text('{"r_max": 4}')
        assert load_scenario(Path(p)).r_max == 4

    def test_scenario_unknown_strategy(self):
        with pytest.raises(ScenarioError, match="strategy"):
            load_scenario('{"trace_origin": {"strategy": "psychic"}}')


class TestOracleApply:
    def test_unknown_op_kind(self):
        store = NormalizedStore(perfect_tree(2, 3))
        with pytest.raises(ValueError, match="unknown op"):
            store.apply([OracleOp("upsert", 1, 4)])
