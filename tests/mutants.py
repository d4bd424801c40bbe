"""The mutants that the test suite must kill, for ``tests/run_mutants.py``.

Each entry names a file under ``src/``, an exact snippet that occurs in it
once, the snippet's replacement, and the test ids that must each fail on the
mutant (an id without parameters stands for every parametrization of it).
A change that rewrites a listed snippet re-points its mutant here in the
same change, so that no mutant is lost.  List a mutant that keeps every
output (a changed route or window) only where a test pins what it changes.
"""

MUTANTS = [
    {
        "name": "phi-from-part-misses-a-remainder-of-2",
        "file": "smoothlab/sieve.py",
        "snippet": "    rem -= rem > 1\n",
        "replacement": "    rem -= rem > 2\n",
        "tests": ["tests/test_kernels.py::test_smooth_phi_shifted_matches_mask_window_and_oracle"],
    },
    {
        "name": "buffer-width-misses-a-spread-of-one-segment",
        "file": "smoothlab/sieve.py",
        "snippet": "points[bisect.bisect_right(points, a + e - s) - 1]",
        "replacement": "points[bisect.bisect_left(points, a + e - s) - 1]",
        "tests": ["tests/test_kernels.py::test_smooth_phi_shifted_picks_its_route[400-shifts0-strips0]"],
    },
    {
        "name": "generated-run-ignores-the-number-of-shifts",
        "file": "smoothlab/sieve.py",
        "snippet": "run = max(1, STREAM_SEGMENT // len(shifts))",
        "replacement": "run = max(1, STREAM_SEGMENT)",
        "tests": ["tests/test_kernels.py::test_a_generated_pass_yields_one_window_per_run"],
    },
    {
        "name": "miller-rabin-without-base-23",
        "file": "smoothlab/sieve.py",
        "snippet": "_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)",
        "replacement": "_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19)",
        "tests": ["tests/test_kernels.py::test_miller_rabin_refuses_the_strong_pseudoprimes_below_2_52"],
    },
    {
        "name": "quotient-admission-at-twice-the-budget",
        "file": "smoothlab/sieve.py",
        "snippet": "    if cost > QUOTIENT_BUDGET:\n",
        "replacement": "    if cost > 2 * QUOTIENT_BUDGET:\n",
        "tests": ["tests/test_census.py::test_the_quotient_budget_admits_up_to_its_boundary"],
    },
    {
        "name": "generated-pass-without-its-capacity",
        "file": "smoothlab/sieve.py",
        "snippet": "    cap = min(GENERATED_CAPACITY, cap)\n",
        "replacement": "",
        "tests": ["tests/test_kernels.py::test_a_generated_pass_stops_at_its_capacity_and_sieves"],
    },
    {
        "name": "fresh-buffer-per-strip",
        "file": "smoothlab/sieve.py",
        "snippet": "        return self.held[band].view(dtype)[:rows, : hi - lo + 1]\n",
        "replacement": "        return np.empty((self.rows, self.width), dtype)[:rows, : hi - lo + 1]\n",
        "tests": [
            "tests/test_kernels.py::test_a_sieved_pass_strips_every_segment_into_its_own_buffers",
            "tests/test_kernels.py::test_a_shorter_last_segment_strips_into_the_first_segments_buffer",
        ],
    },
    {
        "name": "no-int64-buffer-past-2-31",
        "file": "smoothlab/sieve.py",
        "snippet": (
            "        elif self.held[band].itemsize < dtype.itemsize:\n"
            "            self.held[band] = np.empty((self.rows, self.width), dtype)\n"
        ),
        "replacement": "",
        "tests": ["tests/test_kernels.py::test_a_pass_across_2_31_makes_its_buffer_again_once"],
    },
    {
        "name": "trial-hits-read-with-divmod-swapped",
        "file": "smoothlab/sieve.py",
        "snippet": "which, where = np.divmod(",
        "replacement": "where, which = np.divmod(",
        "tests": ["tests/test_kernels.py::test_factor_at_settles_constructed_values_with_one_prime_list"],
    },
    {
        "name": "one-buffer-shared-by-all-bands",
        "file": "smoothlab/sieve.py",
        "snippet": "out=context.strip(b, first, last)",
        "replacement": "out=context.strip(0, first, last)",
        "tests": [
            "tests/test_kernels.py::test_a_sieved_pass_strips_every_segment_into_its_own_buffers[bands]",
            "tests/test_kernels.py::test_smooth_phi_shifted_matches_mask_window_and_oracle",
        ],
    },
    {
        "name": "pass-context-sieves-primes-per-segment",
        "file": "smoothlab/sieve.py",
        "snippet": "            self.bound = min(math.isqrt(self.top), math.floor(min(y, self.top)))\n",
        "replacement": "            self.bound = bound\n",
        "tests": [
            "tests/test_kernels.py::test_a_sieved_pass_strips_every_segment_into_its_own_buffers",
            "tests/test_kernels.py::test_the_smooth_values_stream_sieves_its_mask_primes_once",
            "tests/test_kernels.py::test_aux_averages_sieves_its_primes_once_per_kind_of_strip",
            "tests/test_kernels.py::test_the_moduli_of_the_mobius_split_sieve_their_primes_once",
        ],
    },
    {
        "name": "pass-context-sieves-the-totient-bound-up-front",
        "file": "smoothlab/sieve.py",
        "snippet": "        self.bound = 1\n        self.sieved = np.empty(0, dtype=np.int64)\n",
        "replacement": (
            "        self.bound = math.isqrt(self.top)\n"
            "        self.sieved = primes_upto(self.bound)\n"
        ),
        "tests": [
            "tests/test_kernels.py::test_a_sieved_segment_with_no_smooth_n_strips_nothing",
            "tests/test_kernels.py::test_a_sieved_pass_strips_every_segment_into_its_own_buffers[mask]",
        ],
    },
    {
        "name": "mu-strip-keeps-prime-squares",
        "file": "smoothlab/sieve.py",
        "snippet": "return -p if k == 1 else 0",
        "replacement": "return -p if k == 1 else 1",
        "tests": [
            "tests/test_kernels.py::test_mu_segment_matches_oracle",
            "tests/test_shifted.py::test_mobius_split_holds_one_byte_per_modulus",
        ],
    },
    {
        "name": "mu-flips-where-the-part-is-n",
        "file": "smoothlab/sieve.py",
        "snippet": "flip = np.abs(r) < np.arange(",
        "replacement": "flip = np.abs(r) <= np.arange(",
        "tests": [
            "tests/test_kernels.py::test_mu_segment_matches_oracle",
            "tests/test_shifted.py::test_mobius_split_holds_one_byte_per_modulus",
        ],
    },
    {
        "name": "mu-read-stops-one-block-short",
        "file": "smoothlab/sieve.py",
        "snippet": "for start in range(0, row.size, _READ_BLOCK):",
        "replacement": "for start in range(0, row.size - _READ_BLOCK, _READ_BLOCK):",
        "tests": [
            "tests/test_kernels.py::test_mu_segment_matches_oracle",
            "tests/test_shifted.py::test_mobius_split_holds_one_byte_per_modulus",
        ],
    },
    {
        "name": "mu-read-without-the-block-offset",
        "file": "smoothlab/sieve.py",
        "snippet": "np.arange(lo + start, lo + start + r.size, dtype=row.dtype)",
        "replacement": "np.arange(lo, lo + r.size, dtype=row.dtype)",
        "tests": [
            "tests/test_kernels.py::test_mu_segment_matches_oracle",
            "tests/test_shifted.py::test_mobius_split_holds_one_byte_per_modulus",
        ],
    },
    {
        "name": "tau-read-without-the-block-offset",
        "file": "smoothlab/sieve.py",
        "snippet": "np.arange(lo + start, lo + stop, dtype=part.dtype)",
        "replacement": "np.arange(lo, lo + stop - start, dtype=part.dtype)",
        "tests": [
            "tests/test_kernels.py::test_tau_omega_matches_oracle",
            "tests/test_shifted.py::test_a_warm_aux_averages_faults_no_page_in_per_segment",
        ],
    },
    {
        "name": "split-strips-mu-afresh-per-segment",
        "file": "smoothlab/shifted.py",
        "snippet": "_mu_segment(s, e, context.primes(e), context.strip(0, s, e, 1))",
        "replacement": "_mu_segment(s, e, context.primes(e))",
        "tests": ["tests/test_kernels.py::test_the_moduli_of_the_mobius_split_sieve_their_primes_once"],
    },
    {
        "name": "split-window-cut-left-of-delta",
        "file": "smoothlab/shifted.py",
        "snippet": 'cut = int(np.searchsorted(d, last_head - ws, "right"))',
        "replacement": 'cut = int(np.searchsorted(d, last_head - ws, "left"))',
        "tests": ["tests/test_shifted.py::test_the_split_cuts_each_window_at_delta_as_one_sum_does"],
    },
    {
        "name": "discrepancy-drops-the-last-partial-chunk",
        "file": "smoothlab/experiments.py",
        "snippet": "    for lo in range(start, stop, _VALUE_CHUNK):\n",
        "replacement": "    for lo in range(start, stop - _VALUE_CHUNK + 1, _VALUE_CHUNK):\n",
        "tests": ["tests/test_moduli.py::test_discrepancy_rows_in_chunks_match_the_whole_set_bincount"],
    },
    {
        "name": "discrepancy-labels-without-the-block-offset",
        "file": "smoothlab/experiments.py",
        "snippet": "            offsets -= first\n",
        "replacement": "",
        "tests": [
            "tests/test_moduli.py::test_discrepancy_rows_in_chunks_match_the_whole_set_bincount[1000000.0-100-30-max_over_grid]",
            "tests/test_moduli.py::test_discrepancy_bits_on_fixed_cases",
        ],
    },
    {
        "name": "smooth-values-without-the-psi-check",
        "file": "smoothlab/census.py",
        "snippet": "    if stop != values.size:\n",
        "replacement": "    if False:\n",
        "tests": ["tests/test_moduli.py::test_a_smooth_set_that_does_not_fill_psi_raises"],
    },
    {
        "name": "discrepancy-searches-list-needles",
        "file": "smoothlab/experiments.py",
        "snippet": "cuts = np.array([math.floor(z) for z in z_values], dtype=values.dtype)",
        "replacement": "cuts = [math.floor(z) for z in z_values]",
        "tests": ["tests/test_moduli.py::test_discrepancy_holds_four_bytes_per_smooth_n_at_the_largest_span"],
    },
    {
        "name": "mu-strip-strides-past-p-squared",
        "file": "smoothlab/sieve.py",
        "snippet": 'return 2 if kind == "mu" else None',
        "replacement": "return None",
        "tests": ["tests/test_kernels.py::test_a_mu_strip_strides_no_power_past_p_squared"],
    },
    {
        "name": "split-drops-a-childs-part",
        "file": "smoothlab/sieve.py",
        "snippet": "        return [results[part] for part in parts]\n",
        "replacement": "        return [results[parts[0]]]\n",
        "tests": ["tests/test_split.py::test_a_split_pass_gives_the_rows_of_one_process"],
    },
    {
        "name": "split-adds-the-parents-part-twice",
        "file": "smoothlab/sieve.py",
        "snippet": "            results[start, stop] = pickle.loads(data)\n",
        "replacement": "            results[start, stop] = results[parts[0]]\n",
        "tests": ["tests/test_split.py::test_a_split_pass_gives_the_rows_of_one_process"],
    },
    {
        "name": "split-cuts-one-segment-late",
        "file": "smoothlab/sieve.py",
        "snippet": "return [lo + k * count // parts * step for k in range(parts)] + [hi]",
        "replacement": "return [lo + (k * count // parts + 1) * step for k in range(parts)] + [hi]",
        "tests": [
            "tests/test_split.py::test_the_parts_are_cut_at_segment_boundaries",
            "tests/test_split.py::test_no_part_is_shorter_than_a_segment",
        ],
    },
    {
        "name": "split-leaves-a-child-unreaped",
        "file": "smoothlab/sieve.py",
        "snippet": "            os.kill(pid, signal.SIGKILL)\n            os.waitpid(pid, 0)\n",
        "replacement": "            os.kill(pid, signal.SIGKILL)\n",
        "tests": [
            "tests/test_split.py::test_a_pass_that_raises_in_the_parent_leaves_no_child",
            "tests/test_split.py::test_a_pass_interrupted_while_it_reads_a_child_leaves_no_child",
        ],
    },
    {
        "name": "split-child-outlives-its-parent",
        "file": "smoothlab/sieve.py",
        "snippet": "        if parent is not None and os.getppid() != parent:\n",
        "replacement": "        if False:\n",
        "tests": [
            "tests/test_split.py::test_a_part_stops_between_segments_once_its_parent_is_gone",
            "tests/test_split.py::test_a_child_exits_once_its_parent_is_killed",
        ],
    },
    {
        "name": "split-forks-beside-a-second-thread",
        "file": "smoothlab/sieve.py",
        "snippet": " or threading.active_count() > 1:",
        "replacement": ":",
        "tests": ["tests/test_split.py::test_a_process_with_a_second_thread_runs_the_pass_alone"],
    },
    {
        "name": "split-reraises-a-failed-fork",
        "file": "smoothlab/sieve.py",
        "snippet": "                os.close(write)\n                continue\n",
        "replacement": "                os.close(write)\n                raise\n",
        "tests": ["tests/test_split.py::test_a_part_whose_process_cannot_be_made_is_reduced_in_the_parent[fork]"],
    },
    {
        "name": "split-child-drops-its-error-text",
        "file": "smoothlab/sieve.py",
        "snippet": 'data, code = f"{type(exc).__name__}: {exc}".encode(), 1',
        "replacement": 'data, code = b"", 1',
        "tests": [
            "tests/test_split.py::test_a_child_sends_its_error_back_and_exits_with_1",
            "tests/test_split.py::test_a_child_that_fails_makes_the_pass_raise[raises]",
        ],
    },
    {
        "name": "cli-interrupt-not-mapped-to-130",
        "file": "smoothlab/cli.py",
        "snippet": "    except KeyboardInterrupt:\n",
        "replacement": "    except ZeroDivisionError:\n",
        "tests": ["tests/test_cli.py::test_an_interrupt_exits_130_with_one_error_line"],
    },
    {
        "name": "mobius-split-drops-a-childs-marks",
        "file": "smoothlab/shifted.py",
        "snippet": "    for _t, marks in parts:\n",
        "replacement": "    for _t, marks in parts[:1]:\n",
        "tests": ["tests/test_split.py::test_a_split_pass_gives_the_rows_of_one_process"],
    },
    {
        "name": "mobius-split-skips-the-first-parts-marks",
        "file": "smoothlab/shifted.py",
        "snippet": "    for _t, marks in parts:\n",
        "replacement": "    for _t, marks in parts[1:]:\n",
        "tests": [
            "tests/test_shifted.py::test_mobius_split_matches_oracle",
            "tests/test_shifted.py::test_the_whole_split_is_the_same_on_both_routes",
            "tests/test_split.py::test_a_split_pass_gives_the_rows_of_one_process",
        ],
    },
    {
        "name": "mobius-split-marks-a-unit-without-its-offset",
        "file": "smoothlab/shifted.py",
        "snippet": "np.searchsorted(idx, lo + unit.size)] - lo] = True",
        "replacement": "np.searchsorted(idx, lo + unit.size)]] = True",
        "tests": [
            "tests/test_shifted.py::test_the_whole_split_is_the_same_on_both_routes",
            "tests/test_shifted.py::test_mobius_split_holds_one_byte_per_modulus",
        ],
    },
    {
        # A pack's padding bits overlap the k of the next window, merged before it.
        "name": "mobius-split-assigns-a-pack-instead-of-oring-it",
        "file": "smoothlab/shifted.py",
        "snippet": "span |= np.unpackbits(packed, count=span.size).view(bool)",
        "replacement": "span[:] = np.unpackbits(packed, count=span.size).view(bool)",
        "tests": [
            "tests/test_shifted.py::test_the_whole_split_is_the_same_on_both_routes",
            "tests/test_split.py::test_a_split_pass_gives_the_rows_of_one_process",
        ],
    },
    {
        "name": "tsum-delta-counts-its-head-after-the-split",
        "file": "smoothlab/cli.py",
        "snippet": (
            "        head = _head_psi(args.x, args.y, args.a)\n"
            "        mobius = t_via_mobius(args.x, args.y, args.a, args.delta)\n"
        ),
        "replacement": (
            "        mobius = t_via_mobius(args.x, args.y, args.a, args.delta)\n"
            "        head = _head_psi(args.x, args.y, args.a)\n"
        ),
        "tests": ["tests/test_cli.py::test_tsum_delta_counts_its_head_psi_before_the_split"],
    },
    {
        "name": "abel-counts-psi-after-its-pass",
        "file": "smoothlab/shifted.py",
        "snippet": (
            "    psi_value = psi(x, y)  # before the pass: a refused count sieves nothing\n"
            "    t, steps = map(sum, zip(*_reduce_pass(max(a, 0), top, y, [a], reduce)))\n"
        ),
        "replacement": (
            "    t, steps = map(sum, zip(*_reduce_pass(max(a, 0), top, y, [a], reduce)))\n"
            "    psi_value = psi(x, y)\n"
        ),
        "tests": ["tests/test_shifted.py::test_abel_counts_psi_before_its_pass"],
    },
]
