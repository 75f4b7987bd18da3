package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** E2 — QuT-Clustering vs. the range-query → S2T pipeline for varying
  * temporal periods W (the demo's scenario 2; the paper's R-tree step is the
  * grid that S2T's voting builds over the window). The paper's claim:
  * QuT answers from the ReTraTree orders of magnitude faster because fully
  * covered chunks are reused and stored votes make boundary re-clustering
  * cheap, while the baseline re-runs the whole stack per query.
  */
class E2QuTBench extends SparkSpec {

  private lazy val result = Experiments.runE2(spark, nObjects = 200, nChunks = 8,
                                              stepsPerChunk = 60)

  test("E2: print the QuT vs baseline table") {
    println("\n=== E2: QuT-Clustering vs range-query+S2T (varying |W|) ===")
    println(Experiments.formatE2(result))
    assert(result.rows.length == 7)
  }

  test("E2 shape: QuT beats the baseline on every window") {
    result.rows.foreach { r =>
      assert(r.speedup > 1.0,
        s"|W|=${r.wChunks} aligned=${r.aligned}: QuT ${r.qutMs} ms vs baseline ${r.baselineMs} ms")
    }
  }

  test("E2 shape: aligned windows are answered by pure reuse") {
    result.rows.filter(_.aligned).foreach { r =>
      assert(r.recomputedChunks == 0 && r.reusedChunks == r.wChunks.toInt)
    }
  }

  test("E2 shape: unaligned windows recompute only the two boundary chunks") {
    result.rows.filterNot(_.aligned).foreach { r =>
      assert(r.recomputedChunks <= 2)
    }
  }

  test("E2 shape: the aligned full-horizon speedup is at least an order of magnitude") {
    val full = result.rows.filter(_.aligned).maxBy(_.wChunks)
    assert(full.speedup >= 10.0,
      s"expected >=10x on |W|=8 aligned, got ${full.speedup}x")
  }

  test("E2 shape: baseline cost grows with |W| (it re-clusters everything)") {
    val aligned = result.rows.filter(_.aligned).sortBy(_.wChunks)
    assert(aligned.last.baselineMs > aligned.head.baselineMs / 2,
      "baseline should not get cheaper as the window grows")
  }

  test("E2 sanity: both sides find clusters on non-empty windows") {
    result.rows.foreach { r =>
      assert(r.qutClusters > 0, s"QuT found no clusters for |W|=${r.wChunks}")
      assert(r.baselineClusters > 0, s"baseline found no clusters for |W|=${r.wChunks}")
    }
  }

  test("E2 sanity: one-time build cost is reported") {
    assert(result.nChunks == 8)
    assert(result.build.totalMs > 0)
  }
}
