package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** E4 — the demo's preparatory-phase claim: the set-based in-DBMS voting
  * implementation achieves "orders of magnitude speedup in comparison to
  * corresponding PostgreSQL functions", i.e. tuple-at-a-time procedural
  * evaluation (see `repro.baselines.NaiveVoting`).
  */
class E4InDbmsBench extends SparkSpec {

  private lazy val rows = Experiments.runE4(spark, sizes = Seq(400, 800, 1600),
                                            tSteps = 120)

  test("E4: print the set-based vs tuple-at-a-time table") {
    println("\n=== E4: set-based (Spark) vs tuple-at-a-time voting ===")
    println(Experiments.formatE4(rows))
    assert(rows.length == 3)
  }

  test("E4 shape: the set-based engine wins beyond the engine's fixed overhead") {
    // At small N the constant cost of the distributed engine masks the
    // asymptotics (the paper compares at full MOD scale); from the second
    // size on, the set-based join must win outright.
    rows.drop(1).foreach(r => assert(r.speedup > 1.0,
      s"N=${r.nObjects}: set-based ${r.setBasedMs} ms vs naive ${r.tupleAtATimeMs} ms"))
  }

  test("E4 shape: the gap widens with data size (quadratic vs ~linear)") {
    assert(rows.last.speedup > rows.head.speedup,
      s"speedups ${rows.map(_.speedup)} should grow with N")
  }

  test("E4 shape: at the largest size the speedup is at least 5x") {
    assert(rows.last.speedup >= 5.0, s"got ${rows.last.speedup}x at N=${rows.last.nObjects}")
  }

  test("E4 sanity: naive runtime grows superlinearly") {
    val t1 = rows.head.tupleAtATimeMs.toDouble
    val t4 = rows.last.tupleAtATimeMs.toDouble
    assert(t4 > 4 * t1, s"16x the pairs should cost clearly more than 4x the time ($t1 -> $t4)")
  }
}
