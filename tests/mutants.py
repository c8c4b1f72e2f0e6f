"""Faults that the named tests must catch: ``python tools/mutants.py`` applies
each one to a copy of src/ and tests/ and runs its tests, which must fail.
``text`` must occur exactly once in ``file``.  A change that adds a check adds
its mutants here."""

MUTANTS = [
    # The second-core gate (proptree.cores.second_core_allowed).
    dict(id="gate-any-blas-thread-count",
         file="src/proptree/cores.py",
         text="cpus >= 2 and int(value) == 1",
         replacement="cpus >= 2 and int(value) > 0",
         tests=["tests/test_split_heads.py::test_the_gate_reads_blas_variables_in_openblas_order"]),
    dict(id="gate-one-cpu",
         file="src/proptree/cores.py",
         text="cpus >= 2",
         replacement="cpus >= 1",
         tests=["tests/test_split_heads.py::test_the_gate_reads_blas_variables_in_openblas_order"]),

    # The label split on a second thread (cores.beside, nn.pair_mlp).
    dict(id="split-above-the-threshold",
         file="src/proptree/nn/autodiff.py",
         text="n_rows >= cores.SPLIT_ROWS",
         replacement="n_rows > cores.SPLIT_ROWS",
         tests=["tests/test_split_heads.py::test_split_distribution_and_prediction_are_byte_identical"]),
    dict(id="thread-without-the-callers-error-state",
         file="src/proptree/cores.py",
         text="    @np.errstate(**np.geterr())\n",
         replacement="",
         tests=["tests/test_split_heads.py::test_the_worker_runs_under_the_callers_numpy_error_state"]),
    dict(id="thread-unjoined-when-the-caller-raises",
         file="src/proptree/cores.py",
         text="""
    try:
        fn(here)
    finally:
        worker.join()
""",
         replacement="""
    fn(here)
    worker.join()
""",
         tests=["tests/test_split_heads.py::test_an_exception_in_either_half_is_raised_by_distribution[caller]"]),

    # Training in a forked child (cores.in_child, cores.shared_like, train.train_joint).
    dict(id="fork-beside-another-thread",
         file="src/proptree/cores.py",
         text='SECOND_CORE and hasattr(os, "fork") and threading.active_count() == 1',
         replacement='SECOND_CORE and hasattr(os, "fork")',
         tests=["tests/test_second_core.py::test_no_fork_beside_another_thread"]),
    dict(id="reap-outside-the-finally",
         file="src/proptree/cores.py",
         text="""
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
""",
         replacement="""
            raise
        status = os.waitpid(pid, 0)[1]
""",
         tests=["tests/test_second_core.py::test_an_interrupt_kills_the_child_it_waits_for"]),
    dict(id="no-kill-on-an-interrupt",
         file="src/proptree/cores.py",
         text="os.kill(pid, signal.SIGKILL)",
         replacement="None",
         tests=["tests/test_second_core.py::test_an_interrupt_kills_the_child_it_waits_for"]),
    dict(id="best-epoch-buffer-not-shared",
         file="src/proptree/cores.py",
         text="np.ndarray(array.shape, array.dtype, mmap.mmap(-1, array.nbytes))",
         replacement="np.zeros(array.shape, array.dtype)",
         tests=["tests/test_second_core.py::test_the_second_core_keeps_every_byte[joint]"]),
    dict(id="validation-keeps-a-tied-f1",
         file="src/proptree/train.py",
         text="if report.overall.f1 > max(",
         replacement="if report.overall.f1 >= max(",
         # Epoch 5 of this run ties epoch 2's F1 of 9.09, and epoch 2's weights are kept.
         tests=["tests/test_second_core.py::test_the_second_core_keeps_every_byte[joint-tied-best]"]),

    # The pipeline's arc blocks (edge_models._cuts, read by the builder and by training).
    dict(id="arc-blocks-drop-the-last-partial-block",
         file="src/proptree/pipeline/edge_models.py",
         text="for s in range(0, n, ARC_BLOCK)]",
         replacement="for s in range(0, n - n % ARC_BLOCK if n > ARC_BLOCK else n, ARC_BLOCK)]",
         tests=["tests/test_pipeline.py::test_arc_table_matches_the_string_features",
                "tests/test_pipeline.py::test_blocks_cut_a_long_table_inside_a_childs_arcs"]),
    dict(id="arc-block-ends-one-arc-early",
         file="src/proptree/pipeline/edge_models.py",
         text="slice(s, min(s + ARC_BLOCK, n))",
         replacement="slice(s, min(s + ARC_BLOCK - 1, n))",
         tests=["tests/test_pipeline.py::test_arc_table_matches_the_string_features",
                "tests/test_pipeline.py::test_blocks_cut_a_long_table_inside_a_childs_arcs"]),

    # Decoding and gold checks (data.TokenHeadAssignment.check_heads).
    dict(id="decode-reads-a-negative-head",
         file="src/proptree/data.py",
         text="if not 0 <= h <= n), None)",
         replacement="if not h <= n), None)",
         tests=["tests/test_data.py::test_decode_rejects_a_head_out_of_range"]),
    dict(id="decode-reads-a-head-past-the-end",
         file="src/proptree/data.py",
         text="if not 0 <= h <= n), None)",
         replacement="if not 0 <= h), None)",
         tests=["tests/test_data.py::test_decode_rejects_a_head_out_of_range"]),
]
