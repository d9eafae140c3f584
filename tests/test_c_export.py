"""Tests for the embedded C export: the files, their text and their
strict compilation (the behaviour of the exported code is checked
against the oracle in ``tests/test_c_runtime.py``)."""

import subprocess

import pytest

from repro.errors import SerializationError
from repro.io.c_export import export_tree_to_c, write_c_tables
from repro.quasistatic.ftqs import FTQSConfig, ftqs
from repro.runtime.engine.kernel.build import (
    CORE_HEADER,
    CORE_SOURCE,
    find_compiler,
)
from repro.scheduling.ftss import ftss

#: What the export promises: C99, no VLAs, clean under every warning.
STRICT = ("-std=c99", "-pedantic", "-Wall", "-Wextra", "-Wvla", "-Werror")


@pytest.fixture
def fig1_tree(fig1_app):
    root = ftss(fig1_app)
    return ftqs(fig1_app, root, FTQSConfig(max_schedules=6))


class TestGeneration:
    def test_header_declares_everything(self, fig1_app, fig1_tree):
        header, source = export_tree_to_c(fig1_app, fig1_tree, symbol="figone")
        assert "#ifndef FIGONE_PLAN_H" in header
        assert '#include "rk_core.h"' in header
        assert "extern const rk_plan figone_plan;" in header
        assert "#define FIGONE_N_PROC 3" in header
        assert "#define FIGONE_NW 1" in header
        for buffer, size in (("COMP", "N_PROC"), ("ALPHA", "N_PROC"),
                             ("MASKS", "NW")):
            assert (
                f"#define FIGONE_{buffer}_LEN RK_{buffer}_LEN(FIGONE_{size})"
                in header
            )
        assert '#include "figone_plan.h"' in source
        assert "const rk_plan figone_plan = {" in source
        assert f".period = INT64_C({fig1_app.period})," in source

    def test_counts_match_tree(self, fig1_app, fig1_tree):
        header, source = export_tree_to_c(fig1_app, fig1_tree)
        n_nodes = len(fig1_tree.nodes())
        assert f"#define APP_CHAIN_CAP {n_nodes + 1}" in header
        assert f"static const rk_node app_nodes[{n_nodes}]" in source
        total_entries = sum(
            len(n.schedule.entries) for n in fig1_tree.nodes()
        )
        assert f"static const rk_entry app_entries[{total_entries}]" in source
        total_arcs = sum(len(n.arcs) for n in fig1_tree.nodes())
        assert f"static const rk_arc app_arcs[{total_arcs}]" in source

    def test_soft_processes_marked(self, fig1_app, fig1_tree):
        header, source = export_tree_to_c(fig1_app, fig1_tree)
        # The header lists the process ids with their scenario
        # columns; P1 is hard, P2/P3 soft, and the per-process records
        # carry the same flag first.
        assert " *      0     0  P1 (hard)\n" in header
        assert " *      1     1  P2\n" in header
        assert " *      2     2  P3\n" in header
        procs = source.split("static const rk_proc app_procs[3] = {\n")[1]
        flags = [row.split(",")[0] for row in procs.split("\n")[:3]]
        assert flags == ["    {INT64_C(1)", "    {INT64_C(0)", "    {INT64_C(0)"]

    def test_symbol_sanitization(self, fig1_app, fig1_tree):
        header, _ = export_tree_to_c(fig1_app, fig1_tree, symbol="9 bad-name!")
        assert "G_9_BAD_NAME__PLAN_H" in header
        assert "extern const rk_plan g_9_bad_name__plan;" in header
        with pytest.raises(SerializationError, match="reserved"):
            export_tree_to_c(fig1_app, fig1_tree, symbol="RK")

    def test_non_finite_constant_rejected(
        self, fig1_tree, fig1_soft_utility_app
    ):
        from repro.utility.functions import ConstantUtility

        app = fig1_soft_utility_app(ConstantUtility(float("inf")))
        with pytest.raises(SerializationError, match="no C literal"):
            export_tree_to_c(app, fig1_tree)

    def test_write_files(self, tmp_path, fig1_app, fig1_tree):
        directory = tmp_path / "new" / "out"
        paths = write_c_tables(
            fig1_app, fig1_tree, str(directory), symbol="demo"
        )
        names = ["rk_core.h", "rk_core.c", "demo_plan.h", "demo_plan.c"]
        assert [p.rsplit("/", 1)[1] for p in paths] == names
        assert sorted(f.name for f in directory.iterdir()) == sorted(names)
        # The core ships byte for byte.
        assert (directory / "rk_core.h").read_bytes() == (
            CORE_HEADER.read_bytes()
        )
        assert (directory / "rk_core.c").read_bytes() == (
            CORE_SOURCE.read_bytes()
        )


class TestCompilation:
    def test_compiles_with_cc(self, tmp_path, cc_app):
        """Every exported file, and a target that sizes its static
        scratch from the plan header's macros, compiles under strict
        C99 with every warning an error."""
        compiler = find_compiler()
        if compiler is None:
            pytest.skip("no C compiler available")
        root = ftss(cc_app)
        tree = ftqs(cc_app, root, FTQSConfig(max_schedules=8))
        write_c_tables(cc_app, tree, str(tmp_path), symbol="cruise")
        (tmp_path / "target.c").write_text(
            '#include "cruise_plan.h"\n'
            "static int64_t comp[CRUISE_COMP_LEN];\n"
            "static double alpha[CRUISE_ALPHA_LEN];\n"
            "static uint64_t masks[CRUISE_MASKS_LEN];\n"
            "static int64_t durations[CRUISE_N_PROC];\n"
            "static int64_t faults[CRUISE_N_PROC];\n"
            "static int64_t chain[CRUISE_CHAIN_CAP];\n"
            "int64_t cruise_step(double *utility, uint8_t *miss,\n"
            "                    int64_t *switches, int64_t *observed,\n"
            "                    uint8_t *fallback)\n"
            "{\n"
            "    return rk_run(&cruise_plan, comp, alpha, masks, 1, 1,\n"
            "                  durations, faults, utility, miss,\n"
            "                  switches, observed, chain, fallback);\n"
            "}\n"
        )
        for name in ("rk_core.c", "cruise_plan.c", "target.c"):
            result = subprocess.run(
                [compiler, *STRICT, "-c", str(tmp_path / name),
                 "-o", str(tmp_path / f"{name}.o")],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, f"{name}:\n{result.stderr}"
