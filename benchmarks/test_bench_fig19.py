"""Benchmark regenerating Fig. 19 — synthesis-time scalability of TACOS."""

from repro.experiments import fig19_scalability


def test_fig19_synthesis_scalability(run_once, benchmark):
    # One throwaway pass over the full mesh grid first: one-time process
    # costs (lazy imports, allocator growth, the first gen-2 GC crossing)
    # otherwise land inside a single timed mesh point — milliseconds each —
    # and flip the growth assertion below.  Collect before measuring so the
    # warmup's garbage is not billed to the measured pass either.
    import gc

    fig19_scalability.run(
        mesh_sides=(3, 4, 5, 6, 8, 10),
        hypercube_sides=(),
        collective_size=64e6,
        include_taccl=False,
    )
    gc.collect()
    results = run_once(
        lambda: fig19_scalability.run(
            mesh_sides=(3, 4, 5, 6, 8, 10),
            hypercube_sides=(2, 3, 4),
            collective_size=64e6,
            include_taccl=True,
            taccl_max_npus=36,
            taccl_restarts=3,
        )
    )
    for family, points in results.items():
        for point in points:
            benchmark.extra_info[f"{family}/{point.num_npus} NPUs (s)"] = round(
                point.synthesis_seconds, 4
            )
    mesh_points = results["2D Mesh"]
    hypercube_points = results["3D Hypercube"]
    # Synthesis time grows with system size and fits the paper's O(n^2) model
    # well.  The smallest points measure single milliseconds, where GC pauses
    # and allocator growth from the interleaved TACCL-like runs produce
    # occasional adjacent inversions — so the growth check tolerates jitter
    # (no point may fall below 60% of its predecessor, the largest system
    # must dominate) while the R^2 fit below pins the quadratic trend.
    mesh_times = [point.synthesis_seconds for point in mesh_points]
    assert all(
        later >= 0.6 * earlier for earlier, later in zip(mesh_times, mesh_times[1:])
    ), mesh_times
    assert max(mesh_times) == mesh_times[-1] > 10 * mesh_times[0]
    _, mesh_r2 = fig19_scalability.fit_quadratic(mesh_points)
    _, hypercube_r2 = fig19_scalability.fit_quadratic(hypercube_points)
    benchmark.extra_info["2D Mesh quadratic R^2"] = round(mesh_r2, 4)
    benchmark.extra_info["3D Hypercube quadratic R^2"] = round(hypercube_r2, 4)
    assert mesh_r2 > 0.95
    assert hypercube_r2 > 0.95
    # Mirroring the paper, the TACCL-like baseline is only attempted up to a few
    # tens of NPUs.  Note: the absolute synthesis-time blow-up of the real MILP
    # is not reproduced by the randomized-restart stand-in (see the docstring of
    # repro.baselines.taccl_like);
    # only its presence on small systems and TACOS' polynomial trend are.
    taccl_points = results["2D Mesh (TACCL-like)"]
    assert taccl_points, "TACCL-like baseline was not exercised"
    assert max(point.num_npus for point in taccl_points) <= 36
