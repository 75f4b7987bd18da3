package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.sum
import repro.Timing.{Spans, record}
import repro.baselines.{Convoys, NaiveVoting, RangeQueryS2T, TOptics, Traclus}
import repro.core.{QuTClustering, S2TClustering}
import repro.eval.Quality
import repro.model.{Series, TrajPoint}
import repro.retratree.ReTraTree
import repro.traj.TrajGen
import repro.voting.Voting

import java.nio.file.Files
import scala.collection.mutable

/** The reconstructed evaluation of the demo paper (see DESIGN.md — the demo
  * has no numbered tables; E1–E4 materialize its two scenarios and its
  * performance claims). Each `runEx` returns typed rows; `format` renders
  * the table the benches print and EXPERIMENTS.md records.
  */
object Experiments {

  // ------------------------------------------------------------------ utils

  def format(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  /** The standard MOD for performance runs: ~80% of objects in groups of 10. */
  def mod(spark: SparkSession, nObjects: Int, tSteps: Int, seed: Long = 42L,
          switchFrac: Double = 0.2): TrajGen.Params = {
    val perGroup = 10
    val nGroups = math.max(1, (nObjects * 4) / (5 * perGroup))
    TrajGen.Params(nGroups = nGroups, perGroup = perGroup,
                   nNoise = math.max(0, nObjects - nGroups * perGroup),
                   tSteps = tSteps, dt = 10L, switchFrac = switchFrac, seed = seed)
  }

  // --------------------------------------------------------------------- E1

  /** E1 — S2T-Clustering runtime breakdown and scaling with MOD size. */
  final case class E1Row(nObjects: Int, nPoints: Long, votingMs: Long, segMs: Long,
                         sampleMs: Long, clusterMs: Long, totalMs: Long,
                         nSubs: Int, nClusters: Int, nOutliers: Int)

  def runE1(spark: SparkSession,
            sizes: Seq[Int] = Seq(100, 200, 400, 800),
            tSteps: Int = 180): Seq[E1Row] = {
    // One untimed run first, so that JIT and Spark warm-up stay out of the first row.
    S2TClustering.run(TrajGen.points(TrajGen.generate(spark, mod(spark, sizes.head, tSteps))),
                      S2TClustering.Params(maxReps = 128))
    sizes.map { n =>
      val df = TrajGen.points(TrajGen.generate(spark, mod(spark, n, tSteps))).cache()
      val nPoints = df.count()
      val (r, s) = record(S2TClustering.run(df, S2TClustering.Params(maxReps = 128)))
      df.unpersist()
      E1Row(n, nPoints, s.ms("voting"), s.ms("segmentation"), s.ms("sampling"),
            s.ms("assignment"), s.ms.values.sum, r.subs.length, r.nClusters, r.outliers.length)
    }
  }

  def formatE1(rows: Seq[E1Row]): String = format(
    Seq("N", "points", "voting ms", "segm ms", "sampling ms", "cluster ms",
        "total ms", "subtrajs", "clusters", "outliers"),
    rows.map(r => Seq(r.nObjects, r.nPoints, r.votingMs, r.segMs, r.sampleMs,
                      r.clusterMs, r.totalMs, r.nSubs, r.nClusters, r.nOutliers)
      .map(_.toString)))

  // --------------------------------------------------------------------- E2

  /** E2 — QuT-Clustering vs. (range query → R-tree → S2T) for varying W. */
  final case class E2Row(wChunks: Double, aligned: Boolean, qutMs: Long,
                         baselineMs: Long, speedup: Double,
                         qutClusters: Int, baselineClusters: Int,
                         reusedChunks: Int, recomputedChunks: Int)

  /** The build's one-time cost: its spans "voting", "write" and "cluster". */
  final case class E2Build(spans: Spans, nChunks: Int) { def totalMs: Long = spans.totalMs }

  final case class E2Result(buildStats: E2Build, rows: Seq[E2Row])

  def runE2(spark: SparkSession, nObjects: Int = 200, nChunks: Int = 8,
            stepsPerChunk: Int = 60): E2Result = {
    val tau = stepsPerChunk * 10L
    val p = mod(spark, nObjects, nChunks * stepsPerChunk)
    val df = TrajGen.points(TrajGen.generate(spark, p)).cache()
    df.count()
    val dir = Files.createTempDirectory("retratree")
    val s2tParams = S2TClustering.Params(maxReps = 128)
    try {
      val (tree, built) = record(ReTraTree.build(
        df, ReTraTree.Params(tau = tau, s2t = s2tParams), dir.toString))

      val windows: Seq[(Double, Boolean, Long, Long)] =
        Seq(1, 2, 4, 8).map(k => (k.toDouble, true, 0L, k * tau)) ++
        Seq(1, 2, 4).map(k => (k + 0.0, false, tau / 2, tau / 2 + k * tau))

      // Both sides are timed the same way: wall clock around the call.
      val rows = windows.map { case (wChunks, aligned, w0, w1) =>
        val (qut, q) = record(QuTClustering.query(tree, w0, w1))
        val (base, b) = record(RangeQueryS2T.query(df, w0, w1, s2tParams))
        E2Row(wChunks, aligned, q.totalMs, b.totalMs,
              b.totalMs.toDouble / math.max(1L, q.totalMs),
              qut.nClusters, base.s2t.nClusters,
              qut.nReusedChunks, qut.nRecomputedChunks)
      }
      E2Result(E2Build(built, tree.chunks.size), rows)
    } finally {
      df.unpersist()
      dir.toFile.listFiles.foreach(f => Files.delete(f.toPath)) // the tree's flat level 4
      Files.delete(dir)
    }
  }

  def formatE2(r: E2Result): String = {
    val b = r.buildStats.spans.ms
    val head = s"ReTraTree build (one-time): voting ${b("voting")} ms, " +
      s"write ${b("write")} ms, cluster ${b("cluster")} ms, ${r.buildStats.nChunks} chunks\n"
    head + format(
      Seq("|W| (chunks)", "aligned", "QuT ms", "RQ+S2T ms", "speedup",
          "QuT clusters", "base clusters", "reused", "recomputed"),
      r.rows.map(x => Seq(x.wChunks.toString, x.aligned.toString, x.qutMs.toString,
                          x.baselineMs.toString, f"${x.speedup}%.1fx",
                          x.qutClusters.toString, x.baselineClusters.toString,
                          x.reusedChunks.toString, x.recomputedChunks.toString)))
  }

  // --------------------------------------------------------------------- E3

  /** E3 — clustering quality on planted sub-trajectory structure. */
  final case class E3Row(method: String, ariScore: Double, purity: Double,
                         recall: Double, nClusters: Int, runtimeMs: Long)

  def runE3(spark: SparkSession, nObjects: Int = 150, tSteps: Int = 120,
            switchFrac: Double = 0.5): Seq[E3Row] = {
    val p = mod(spark, nObjects, tSteps, switchFrac = switchFrac)
    val labeled = TrajGen.generateLocal(p)
    val truth: Map[(Long, Long), Int] = labeled.map(lp => (lp.objId, lp.t) -> lp.label).toMap
    val df = TrajGen.points(TrajGen.generate(spark, p)).cache()
    df.count()

    // --- S2T (sub-trajectory level)
    val (s2t, s2tSpans) = record(S2TClustering.run(df, S2TClustering.Params(maxReps = 128)))
    val subByKey = s2t.subs.map(s => (s.objId, s.subId) -> s).toMap
    val s2tPairs = s2t.assignments.flatMap(a =>
      subByKey((a.objId, a.subId)).ts.map(t => truth((a.objId, t)) -> a.clusterId)).toSeq

    // --- TRACLUS (spatial segments, time-blind)
    val trajs = Series.byObject(labeled.map(lp => (lp.objId, lp.t, lp.x, lp.y, 0.0))).toSeq
    val ((segs, segLabels), traclusSpans) = record(Traclus.run(trajs, Traclus.Params()))
    val tsOf = trajs.map(s => s.objId -> s.ts).toMap
    val traclusPairs = segs.zip(segLabels).flatMap { case (seg, c) =>
      val ts = tsOf(seg.objId) // consecutive segments share an end sample: the last one keeps it
      val end = if (seg.i1 == ts.length - 1) ts.length else seg.i1
      (seg.i0 until end).map(i => truth((seg.objId, ts(i))) -> c)
    }.toSeq

    // --- T-OPTICS (whole trajectories)
    val (toLabels, topticsSpans) = record(TOptics.run(trajs.toArray, TOptics.Params()))
    val topticsPairs = trajs.zip(toLabels).flatMap { case (s, c) =>
      s.ts.map(t => truth((s.objId, t)) -> c)
    }.toSeq

    // --- Convoys (co-movement pattern family, scenario 1's fourth method)
    val rawPts = labeled.map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    val (convoys, convoySpans) = record(
      Convoys.run(rawPts, Convoys.Params(eps = 8.0, minObjs = 4, minDuration = 6)))
    val convoyLabelOf = mutable.Map.empty[(Long, Long), Int]
    for ((c, i) <- convoys.sortBy(-_.objIds.size).zipWithIndex; o <- c.objIds;
         lp <- labeled if lp.objId == o && lp.t >= c.tStart && lp.t <= c.tEnd)
      convoyLabelOf.getOrElseUpdate((o, lp.t), i)
    val convoyPairs = labeled.map(lp => lp.label -> convoyLabelOf.getOrElse((lp.objId, lp.t), -1)).toSeq

    df.unpersist()
    def row(m: String, pairs: Seq[(Int, Int)], k: Int, ms: Long) = {
      require(pairs.length == labeled.length, s"$m scored ${pairs.length} of ${labeled.length} samples")
      E3Row(m, Quality.ari(pairs), Quality.purity(pairs), Quality.groupRecall(pairs), k, ms)
    }
    Seq(
      row("S2T-Clustering", s2tPairs, s2t.nClusters, s2tSpans.totalMs),
      row("TRACLUS", traclusPairs, segLabels.filter(_ >= 0).distinct.length, traclusSpans.totalMs),
      row("T-OPTICS", topticsPairs, toLabels.filter(_ >= 0).distinct.length, topticsSpans.totalMs),
      row("Convoys", convoyPairs, convoys.length, convoySpans.totalMs),
    )
  }

  def formatE3(rows: Seq[E3Row]): String = format(
    Seq("method", "ARI", "purity", "group recall", "clusters", "runtime ms"),
    rows.map(r => Seq(r.method, f"${r.ariScore}%.3f", f"${r.purity}%.3f",
                      f"${r.recall}%.3f", r.nClusters.toString, r.runtimeMs.toString)))

  // --------------------------------------------------------------------- E4

  /** E4 — set-at-a-time voting (one timestamp's set at a time, through a
    * spatial grid) vs. tuple-at-a-time voting (a full scan per sample). Both
    * compute the same votes; their sums must agree.
    */
  final case class E4Row(nObjects: Int, nPoints: Int, setBasedMs: Long,
                         tupleAtATimeMs: Long, speedup: Double)

  def runE4(spark: SparkSession, sizes: Seq[Int] = Seq(400, 800, 1600),
            tSteps: Int = 120): Seq[E4Row] = {
    val sigma = S2TClustering.Params().sigma
    sizes.map { n =>
      val df = TrajGen.points(TrajGen.generate(spark, mod(spark, n, tSteps))).cache()
      df.count()
      // Summing the vote column forces every vote, so no optimizer rule can
      // prune the computation being timed.
      val (setSum, setSpans) = record {
        Voting.votes(df, sigma).agg(sum("vote")).first().getDouble(0)
      }
      val local: Array[TrajPoint] = {
        import spark.implicits._
        df.select("obj_id", "t", "x", "y").as[(Long, Long, Double, Double)]
          .collect().map(r => TrajPoint(r._1, r._2, r._3, r._4))
      }
      val (naive, naiveSpans) = record { NaiveVoting.votes(local, sigma) }
      df.unpersist()
      val naiveSum = naive.sum
      require(math.abs(setSum - naiveSum) <= 1e-6 * math.max(1.0, math.abs(naiveSum)),
        s"N=$n: set-based vote sum $setSum differs from tuple-at-a-time $naiveSum")
      val (setMs, naiveMs) = (setSpans.totalMs, naiveSpans.totalMs)
      E4Row(n, local.length, setMs, naiveMs, naiveMs.toDouble / math.max(1L, setMs))
    }
  }

  def formatE4(rows: Seq[E4Row]): String = format(
    Seq("N", "points", "set-based ms", "tuple-at-a-time ms", "speedup"),
    rows.map(r => Seq(r.nObjects.toString, r.nPoints.toString, r.setBasedMs.toString,
                      r.tupleAtATimeMs.toString, f"${r.speedup}%.1fx")))
}
