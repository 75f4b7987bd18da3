package repro.core

import repro.SparkSpec
import repro.retratree.ReTraTree
import repro.traj.TrajGen

class QuTClusteringSpec extends SparkSpec {

  private val genParams = TrajGen.Params(nGroups = 2, perGroup = 6, nNoise = 4,
                                         tSteps = 80, seed = 19L)
  private val tau = 200L // 4 chunks

  private lazy val pointsDf = TrajGen.points(TrajGen.generate(spark, genParams)).cache()
  private lazy val tree = {
    ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), tempDir("qut-spec"))
  }

  test("an aligned window reuses chunk clusterings and recomputes nothing") {
    val r = QuTClustering.query(tree, 0L, 400L)
    assert(r.nReusedChunks == 2)
    assert(r.nRecomputedChunks == 0)
  }

  test("the full horizon reuses every chunk") {
    val r = QuTClustering.query(tree, 0L, 800L)
    assert(r.nReusedChunks == 4 && r.nRecomputedChunks == 0)
  }

  test("a window over more chunk ids than an Int counts equals the full horizon") {
    def digest(r: QuTClustering.Result) = (
      r.clusters.map(c => (c.id, c.nMembers, c.reps.map(s => (s.key, s.ts.toSeq, s.xs.toSeq)).toSeq)).toSeq,
      r.outliers.toSeq, r.nReusedChunks, r.nRecomputedChunks)
    val wide = QuTClustering.query(tree, -Long.MaxValue / 2, Long.MaxValue / 2)
    assert(wide.nReusedChunks == 4)
    assert(digest(wide) == digest(QuTClustering.query(tree, 0L, 800L)))
  }

  test("an unaligned window recomputes only the boundary chunks") {
    val r = QuTClustering.query(tree, 100L, 700L)
    assert(r.nReusedChunks == 2, "chunks 1 and 2 are fully covered")
    assert(r.nRecomputedChunks == 2, "chunks 0 and 3 are clipped")
  }

  test("an unaligned window starts no Spark job") {
    assert(tree.chunks.size == 4) // built outside the guard
    assert(jobsDuring(pointsDf.count()) >= 1, "the guard must see a Spark action")
    assert(jobsDuring(QuTClustering.query(tree, 100L, 700L)) == 0)
  }

  test("a window inside a single chunk recomputes exactly that chunk") {
    val r = QuTClustering.query(tree, 250L, 350L)
    assert(r.nReusedChunks == 0 && r.nRecomputedChunks == 1)
  }

  test("an empty period beyond the data returns no clusters") {
    val r = QuTClustering.query(tree, 100000L, 200000L)
    assert(r.nClusters == 0 && r.nOutliers == 0)
  }

  test("degenerate window is rejected") {
    intercept[IllegalArgumentException] { QuTClustering.query(tree, 100L, 100L) }
  }

  test("clusters exist for every queried period containing lanes") {
    val r = QuTClustering.query(tree, 0L, 800L)
    assert(r.nClusters >= genParams.nGroups,
      s"expected >= ${genParams.nGroups} merged clusters, got ${r.nClusters}")
  }

  test("lane clusters merge across chunk boundaries into spanning clusters") {
    val r = QuTClustering.query(tree, 0L, 800L)
    // the two planted lanes persist over all 4 chunks; after merging, at
    // least one cluster must span (almost) the full horizon
    val spanning = r.clusters.filter(c => c.tEnd - c.tStart >= 600L)
    assert(spanning.nonEmpty, "no cluster spans chunk boundaries after merging")
    assert(spanning.exists(_.reps.length >= 3),
      "a spanning cluster should be stitched from several per-chunk representatives")
  }

  test("member counts are preserved by the merge step") {
    val r = QuTClustering.query(tree, 0L, 400L)
    val direct = Seq(0L, 1L).map(c => tree.chunks(c)).flatMap(_.subChunks)
      .map(sc => sc.assignments.count(_.clusterId != repro.model.Assignment.Outlier)).sum
    assert(r.clusters.map(_.nMembers).sum == direct)
  }

  test("outliers are reported per queried chunk") {
    val r = QuTClustering.query(tree, 0L, 800L)
    val direct = tree.chunks.values.flatMap(_.subChunks)
      .map(sc => sc.assignments.count(_.clusterId == repro.model.Assignment.Outlier)).sum
    assert(r.nOutliers == direct)
  }

  test("boundary recomputation clips sub-trajectories to the window") {
    val r = QuTClustering.query(tree, 250L, 350L)
    r.clusters.foreach { c =>
      assert(c.tStart >= 250L && c.tEnd < 350L,
        s"cluster ${c.id} leaks outside the window: [${c.tStart}, ${c.tEnd}]")
    }
  }

  test("repeated identical queries give identical results (stateless reads)") {
    val a = QuTClustering.query(tree, 100L, 700L)
    val b = QuTClustering.query(tree, 100L, 700L)
    assert(a.nClusters == b.nClusters && a.nOutliers == b.nOutliers)
    assert(a.clusters.map(_.nMembers).toSeq == b.clusters.map(_.nMembers).toSeq)
  }

  test("a no-merge configuration yields per-chunk clusters") {
    // Each single-chunk aligned window is one chunk's stored clustering,
    // where no merge runs; over the full horizon the merge only joins them.
    val perChunk = (0L until 4L).map(c => QuTClustering.query(tree, c * tau, (c + 1) * tau).nClusters).sum
    val merged = QuTClustering.query(tree, 0L, 4 * tau)
    assert(merged.clusters.map(_.reps.length).sum == perChunk)
    assert(merged.nClusters <= perChunk)
  }

  test("QuT cluster count on aligned windows matches the stored level-3 content") {
    val r = QuTClustering.query(tree, 200L, 400L)
    assert(r.nClusters == tree.chunks(1L).allReps.length)
  }
}
