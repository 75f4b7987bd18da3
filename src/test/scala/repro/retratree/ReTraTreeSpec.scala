package repro.retratree

import repro.{Oracle, SparkSpec}
import repro.Timing.record
import repro.core.{QuTClustering, S2TClustering}
import repro.model.{Series, TrajPoint}
import repro.traj.TrajGen
import repro.voting.Voting

import java.io.File
import java.nio.file.Paths

class ReTraTreeSpec extends SparkSpec {

  private val genParams = TrajGen.Params(nGroups = 2, perGroup = 6, nNoise = 4,
                                         tSteps = 80, seed = 17L)
  private val tau = 200L // 4 chunks over the 800s horizon

  private lazy val pointsDf = TrajGen.points(TrajGen.generate(spark, genParams)).cache()
  private lazy val (tree, buildSpans) =
    record(ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), tempDir("retratree-spec")))

  test("build creates one chunk per tau-length period with data") {
    assert(tree.chunks.keySet == Set(0L, 1L, 2L, 3L))
    assert(tree.chunks.size == 4)
  }

  test("chunk boundaries follow tau") {
    assert(tree.chunkStart(2L) == 400L && tree.chunkEnd(2L) == 600L)
  }

  test("subChunkOf maps lifespan starts into level-2 buckets") {
    assert(tree.subChunkOf(0L, 0L) == 0)
    assert(tree.subChunkOf(0L, 150L) == 1)
    assert(tree.subChunkOf(1L, 200L) == 0)
    assert(tree.subChunkOf(1L, 399L) == 1)
  }

  test("every chunk found clusters for the planted lanes") {
    tree.chunks.values.foreach { cc =>
      assert(cc.allReps.length >= 1, s"chunk ${cc.chunkId} has no clusters")
    }
  }

  private def level4Files(dir: String): Seq[String] =
    new File(dir).listFiles().map(_.getName).sorted.toSeq

  test("one level-4 file per chunk") {
    assert(level4Files(tree.dataDir) == Seq("chunk_0.l4", "chunk_1.l4", "chunk_2.l4", "chunk_3.l4"))
  }

  test("oracle: per-chunk point counts match a DuckDB aggregation") {
    import spark.implicits._
    val sparkSide = tree.chunks.keys.toSeq
      .map(c => (c, tree.loadChunk(c).map(_.size.toLong).sum))
      .toDF("chunk_id", "n")
    val sql =
      s"""SELECT CAST(FLOOR(CAST(t AS DOUBLE) / $tau) AS BIGINT) AS chunk_id,
         |       COUNT(*) AS n
         |FROM pts GROUP BY 1""".stripMargin
    Oracle.assertEquivalent(sparkSide, sql, "pts" -> pointsDf)
  }

  test("loadChunk gives back the series the build clustered") {
    tree.chunks.foreach { case (c, cc) =>
      val again = tree.clusterSeries(c, tree.loadChunk(c))
      assert(again.map(_.reps.map(_.key).toSeq) == cc.subChunks.map(_.reps.map(_.key).toSeq))
      assert(again.map(_.assignments.toSeq) == cc.subChunks.map(_.assignments.toSeq))
    }
  }

  test("a level-4 file round-trips every value bit for bit") {
    val odd = Array(-0.0, Double.MinPositiveValue, Double.MaxValue, Double.NegativeInfinity,
                    math.Pi, 1e-300, -123456.789)
    val written = Array(
      Series(-7L, Array(Long.MinValue, -1L, 0L, 3L, 5L, 8L, Long.MaxValue), odd, odd.reverse, odd.map(_ / 3)),
      Series(Long.MaxValue, Array(42L), Array(0.1), Array(0.2), Array(0.30000000000000004)),
      Series(0L, Array.empty, Array.empty, Array.empty, Array.empty))
    val f = Paths.get(tempDir("level4-codec"), "chunk_0.l4")
    ReTraTree.writeChunk(f, written)
    val read = ReTraTree.readChunk(f)
    def bits(s: Series) = (s.objId, s.ts.toSeq,
      Seq(s.xs, s.ys, s.votes).map(_.map(java.lang.Double.doubleToRawLongBits).toSeq))
    assert(read.map(bits).toSeq == written.map(bits).toSeq)
  }

  test("loadChunk starts no Spark job") {
    assert(jobsDuring(pointsDf.count()) >= 1, "the guard must see a Spark action")
    assert(jobsDuring(tree.loadChunk(1L)) == 0)
  }

  test("build creates its directory, and a second build there leaves only its own files") {
    val dir = Paths.get(tempDir("retratree-twice"), "tree").toString
    ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), dir)
    val t2 = ReTraTree.build(pointsDf.where("t < 400"), ReTraTree.Params(tau = 2 * tau), dir)
    assert(t2.chunks.keySet == Set(0L))
    assert(level4Files(dir) == Seq("chunk_0.l4"))
    assert(t2.loadChunk(1L).isEmpty, "a stale chunk file of the first tree was read")
    assert(t2.loadChunk(0L).map(_.size).sum == pointsDf.where("t < 400").count())
  }

  test("loadChunk returns exactly the chunk's samples with global votes") {
    val series = tree.loadChunk(1L)
    assert(series.nonEmpty)
    series.foreach { vs =>
      assert(vs.ts.forall(t => t >= 200L && t < 400L))
      assert(vs.ts.toSeq == vs.ts.sorted.toSeq)
    }
    // votes must equal the global voting reference restricted to the chunk
    val local = TrajGen.generateLocal(genParams).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    val ref = Voting.votesLocal(local, S2TClustering.Params().sigma)
    series.foreach { vs =>
      vs.ts.indices.foreach { i =>
        assert(math.abs(vs.votes(i) - ref((vs.objId, vs.ts(i)))) < 1e-9,
          s"vote mismatch for obj ${vs.objId} at t=${vs.ts(i)}")
      }
    }
  }

  test("sub-chunk clusterings partition the chunk's sub-trajectories") {
    tree.chunks.values.foreach { cc =>
      val totalAssigned = cc.subChunks.map(_.assignments.length).sum
      assert(totalAssigned > 0)
      cc.subChunks.foreach { sc =>
        assert(sc.assignments.forall(a =>
          a.clusterId == repro.model.Assignment.Outlier || a.clusterId < sc.reps.length))
      }
    }
  }

  test("clusterSeries is deterministic") {
    val series = tree.loadChunk(2L)
    val a = tree.clusterSeries(2L, series)
    val b = tree.clusterSeries(2L, series)
    assert(a.map(_.reps.map(_.key).toSeq) == b.map(_.reps.map(_.key).toSeq))
  }

  // ------------------------------------------------------------ incremental

  private def laneTrajectory(objId: Long, chunkId: Long, y0: Double): Array[TrajPoint] = {
    // ride along group 0's first chunk? build a fresh synthetic lane-mate by
    // copying the stored series of some clustered object, offset slightly.
    val series = tree.loadChunk(chunkId)
    val base = series.maxBy(_.votes.sum)
    base.ts.indices.map(i => TrajPoint(objId, base.ts(i), base.xs(i), base.ys(i) + y0)).toArray
  }

  test("inserting a trajectory near an existing representative archives it as member") {
    val dir = tempDir("retratree-ins")
    val t2 = ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), dir)
    val cc = t2.chunks(0L)
    val before = cc.appended.length
    t2.insertTrajectory(laneTrajectory(900L, 0L, 0.5))
    assert(cc.appended.length == before + 1)
    assert(cc.pendingOutliers.isEmpty)
  }

  test("inserting a far-away trajectory lands in the outlier partition") {
    val dir = tempDir("retratree-ins2")
    val t2 = ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), dir)
    val cc = t2.chunks(0L)
    val pts = (0 until 20).map(i => TrajPoint(901L, i * 10L, 90000.0 + i, 90000.0)).toArray
    t2.insertTrajectory(pts)
    assert(cc.pendingOutliers.length == 1)
    assert(cc.appended.isEmpty)
  }

  test("an insert spanning several chunks is clipped per chunk") {
    val dir = tempDir("retratree-ins3")
    val t2 = ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), dir)
    val pts = (0 until 40).map(i => TrajPoint(902L, i * 10L, 70000.0, 70000.0)).toArray // spans chunks 0,1
    t2.insertTrajectory(pts)
    assert(t2.chunks(0L).pendingOutliers.length == 1)
    assert(t2.chunks(1L).pendingOutliers.length == 1)
  }

  test("the outlier partition triggers S2T when it reaches the threshold") {
    val dir = tempDir("retratree-ins4")
    val t2 = ReTraTree.build(pointsDf,
      ReTraTree.Params(tau = tau, reclusterThreshold = 5), dir)
    val cc = t2.chunks(0L)
    val clustersBefore = cc.allReps.length
    // 5 co-moving new trajectories far from everything: a brand-new lane
    for (m <- 0 until 5) {
      val pts = (0 until 20).map(i =>
        TrajPoint(910L + m, i * 10L, 50000.0 + i * 5.0, 50000.0 + m * 0.5)).toArray
      t2.insertTrajectory(pts)
    }
    assert(cc.pendingOutliers.isEmpty, "threshold must drain the outlier partition")
    assert(cc.allReps.length > clustersBefore,
      "back-propagation must create a new representative for the new lane")
  }

  test("after re-clustering, a further lane-mate insert is archived, not buffered") {
    val dir = tempDir("retratree-ins5")
    val t2 = ReTraTree.build(pointsDf,
      ReTraTree.Params(tau = tau, reclusterThreshold = 5), dir)
    val cc = t2.chunks(0L)
    for (m <- 0 until 5) {
      val pts = (0 until 20).map(i =>
        TrajPoint(920L + m, i * 10L, 50000.0 + i * 5.0, 50000.0 + m * 0.5)).toArray
      t2.insertTrajectory(pts)
    }
    val appendedBefore = cc.appended.length
    val pts = (0 until 20).map(i =>
      TrajPoint(930L, i * 10L, 50000.0 + i * 5.0, 50001.5)).toArray
    t2.insertTrajectory(pts)
    assert(cc.appended.length == appendedBefore + 1,
      "the new representative must now accommodate lane-mates (Fig. 2 cycle)")
  }

  test("an aligned window counts the members that inserts appended") {
    val t2 = ReTraTree.build(pointsDf,
      ReTraTree.Params(tau = tau, reclusterThreshold = 5), tempDir("retratree-ins7"))
    val cc = t2.chunks(1L)
    val buildReps = cc.allReps.length
    for (m <- 0 until 5) {
      val pts = (20 until 40).map(i =>
        TrajPoint(950L + m, i * 10L, 50000.0 + i * 5.0, 50000.0 + m * 0.5)).toArray
      t2.insertTrajectory(pts)
    }
    def total(r: QuTClustering.Result) = r.clusters.map(_.nMembers).sum + r.nOutliers
    val (before, beforeBoth) = (QuTClustering.query(t2, tau, 2 * tau), QuTClustering.query(t2, 0L, 2 * tau))
    val appendedBefore = cc.appended.length
    // One lane-mate of a re-clustered sub-chunk, one of a build-time lane.
    t2.insertTrajectory((20 until 40).map(i => TrajPoint(960L, i * 10L, 50000.0 + i * 5.0, 50001.5)).toArray)
    t2.insertTrajectory(laneTrajectory(961L, 1L, 0.5))
    val added = cc.appended.drop(appendedBefore)
    assert(added.length == 2 && cc.pendingOutliers.isEmpty)
    assert(added.exists(_.clusterId >= buildReps),
      "the re-clustered lane's mate must be numbered after the build's representatives")

    val after = QuTClustering.query(t2, tau, 2 * tau)
    assert(total(after) == cc.subChunks.map(_.assignments.length).sum + cc.appended.length)
    assert(total(after) == total(before) + added.length)
    assert(after.nOutliers == before.nOutliers)
    // Over chunks 0 and 1, each member lands in the cluster of the representative it matched.
    val reps = cc.allReps
    val afterBoth = QuTClustering.query(t2, 0L, 2 * tau)
    assert(afterBoth.clusters.map(_.nMembers).toSeq == beforeBoth.clusters.map(c =>
      c.nMembers + added.count(a => c.reps.exists(_ eq reps(a.clusterId)))).toSeq)
  }

  test("insert of an empty trajectory is rejected") {
    intercept[IllegalArgumentException] { tree.insertTrajectory(Array.empty) }
  }

  /** Everything an insert can change, by chunk. */
  private def state(t: ReTraTree) = t.chunks.map { case (c, cc) =>
    c -> ((cc.subChunks, cc.appended.toList, cc.pendingOutliers.toList)) }

  private def assertRejected(pts: Array[TrajPoint], reason: String, t: ReTraTree = tree): Unit = {
    val before = state(t)
    val e = intercept[IllegalArgumentException] { t.insertTrajectory(pts) }
    assert(e.getMessage.contains(reason), e.getMessage)
    assert(state(t) == before, "a rejected insert must leave the tree unchanged")
  }

  test("insert of samples from several objects is rejected") {
    val pts = (0 until 20).map(i => TrajPoint(940L + i % 2, i * 10L, 0.0, 0.0)).toArray
    assertRejected(pts, "several objects")
  }

  test("insert of non-finite coordinates is rejected") {
    val pts = (0 until 20).map(i => TrajPoint(941L, i * 10L, i.toDouble, 0.0)).toArray
    assertRejected(pts.updated(5, pts(5).copy(x = Double.NaN)), "non-finite")
    assertRejected(pts.updated(7, pts(7).copy(y = Double.PositiveInfinity)), "non-finite")
  }

  test("insert of duplicate timestamps is rejected") {
    val pts = (0 until 20).map(i => TrajPoint(942L, i * 10L, i.toDouble, 0.0)).toArray
    assertRejected(pts :+ TrajPoint(942L, 50L, 1.0, 1.0), "duplicate timestamp")
  }

  test("re-inserting a buffered sample is rejected, and later inserts still drain the buffer") {
    val t2 = ReTraTree.build(pointsDf,
      ReTraTree.Params(tau = tau, reclusterThreshold = 3), tempDir("retratree-ins8"))
    val cc = t2.chunks(0L)
    val subChunksBefore = cc.subChunks.length
    def far(objId: Long) = (0 until 20).map(i =>
      TrajPoint(objId, i * 10L, 50000.0 + i * 5.0, 50000.0 + (objId - 970L) * 0.5)).toArray
    t2.insertTrajectory(far(970L))
    assertRejected(far(970L).drop(10), "object 970 already has a buffered sample at t=100", t2)
    t2.insertTrajectory(far(971L))
    assert(cc.pendingOutliers.length == 2)
    t2.insertTrajectory(far(972L))
    assert(cc.pendingOutliers.isEmpty, "the third valid insert must re-cluster the buffer")
    assert(cc.subChunks.length > subChunksBefore)
  }

  test("an insert at t < 0 lands in the floor-division chunk, as in build and QuT") {
    val dir = tempDir("retratree-ins6")
    val t2 = ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), dir)
    val pts = (0 until 20).map(i => TrajPoint(943L, -100L + i * 10L, 60000.0, 60000.0)).toArray
    t2.insertTrajectory(pts)
    assert(t2.chunks(-1L).pendingOutliers.map(_.ts.toSeq) == Seq((-100L to -10L by 10L)))
    assert(t2.chunks(0L).pendingOutliers.map(_.ts.toSeq) == Seq((0L to 90L by 10L)))
    assert(t2.loadChunk(-1L).isEmpty, "a chunk that only inserts created has no level-4 file")
    assert(QuTClustering.query(t2, -50L, 50L).nRecomputedChunks == 2)
  }

  test("Params reject recluster thresholds below 1") {
    for ((params, field) <- Seq(
           (() => ReTraTree.Params(tau = tau, reclusterThreshold = 0), "reclusterThreshold"))) {
      val e = intercept[IllegalArgumentException](params())
      assert(e.getMessage.contains(field), e.getMessage)
    }
  }

  test("a build starts only the jobs of one votedSeries call") {
    pointsDf.count() // the input's own cache is not the build's
    val voting = jobsDuring(Voting.votedSeries(pointsDf, S2TClustering.Params().sigma))
    assert(voting >= 1)
    assert(jobsDuring(ReTraTree.build(pointsDf, ReTraTree.Params(tau = tau), tempDir("retratree-jobs"))) == voting)
  }

  test("build and insertTrajectory put samples before 0 and on chunk borders in the same chunks") {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    // Samples at -2τ … 2τ, every 10 s: each border -2τ, -τ, 0, τ, 2τ is one.
    val pts = for (o <- 0L until 6L; t <- -2 * tau to 2 * tau by 10L)
      yield TrajPoint(o, t, o * 3.0 + rnd.nextDouble(), rnd.nextDouble() * 5)
    val params = ReTraTree.Params(tau = tau, reclusterThreshold = 1000)
    val built = ReTraTree.build(pts.map(p => (p.objId, p.t, p.x, p.y)).toDF("obj_id", "t", "x", "y"),
                                params, tempDir("retratree-borders"))
    val inserted = new ReTraTree(params, tempDir("retratree-borders-ins"))
    pts.groupBy(_.objId).values.foreach(traj => inserted.insertTrajectory(traj.toArray))
    def samples(series: Iterable[Series]) =
      series.flatMap(s => s.ts.map(t => (s.objId, t))).toSet
    val byBuild = built.chunks.keys.map(c => c -> samples(built.loadChunk(c))).toMap
    val byInsert = inserted.chunks.map { case (c, cc) => c -> samples(cc.pendingOutliers) }
    assert(byBuild.keySet == Set(-2L, -1L, 0L, 1L, 2L))
    assert(byBuild == byInsert)
    for ((c, keys) <- byBuild; (_, t) <- keys) assert(math.floorDiv(t, tau) == c)
    assert(byBuild(-1L).map(_._2).min == -tau && byBuild(0L).map(_._2).min == 0L)
  }

  test("build stats expose the one-time preprocessing costs") {
    val phases = Seq("voting", "write", "cluster").map(buildSpans.ms(_))
    assert(phases.forall(_ >= 0))
    assert(phases.sum <= buildSpans.totalMs)
  }
}
