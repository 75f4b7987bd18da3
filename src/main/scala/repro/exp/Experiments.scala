package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
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
                   tSteps = tSteps, switchFrac = switchFrac, seed = seed)
  }

  /** Generate the MOD of `p`, cache it, and run `body` on it and its point
    * count; the cache is dropped however `body` ends.
    */
  private def withMod[A](spark: SparkSession, p: TrajGen.Params)(body: (DataFrame, Long) => A): A = {
    val df = TrajGen.points(TrajGen.generate(spark, p)).cache()
    try body(df, df.count()) finally df.unpersist()
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
    withMod(spark, mod(spark, sizes.head, tSteps))((df, _) => S2TClustering.run(df, S2TClustering.Params()))
    sizes.map { n =>
      withMod(spark, mod(spark, n, tSteps)) { (df, nPoints) =>
        val (r, s) = record(S2TClustering.run(df, S2TClustering.Params()))
        E1Row(n, nPoints, s.ms("voting"), s.ms("segmentation"), s.ms("sampling"),
              s.ms("assignment"), s.ms.values.sum, r.subs.length, r.nClusters, r.outliers.length)
      }
    }
  }

  def formatE1(rows: Seq[E1Row]): String = format(
    Seq("N", "points", "voting ms", "segm ms", "sampling ms", "cluster ms",
        "total ms", "subtrajs", "clusters", "outliers"),
    rows.map(r => Seq(r.nObjects, r.nPoints, r.votingMs, r.segMs, r.sampleMs,
                      r.clusterMs, r.totalMs, r.nSubs, r.nClusters, r.nOutliers)
      .map(_.toString)))

  // --------------------------------------------------------------------- E2

  /** E2 — QuT-Clustering vs. (range query → S2T) for varying W. */
  final case class E2Row(wChunks: Double, aligned: Boolean, qutMs: Long,
                         baselineMs: Long, speedup: Double,
                         qutClusters: Int, baselineClusters: Int,
                         reusedChunks: Int, recomputedChunks: Int)

  /** `build` is the build's one-time cost: its spans "voting", "write" and "cluster". */
  final case class E2Result(build: Spans, nChunks: Int, rows: Seq[E2Row])

  def runE2(spark: SparkSession, nObjects: Int = 200, nChunks: Int = 8,
            stepsPerChunk: Int = 60): E2Result = {
    val tau = stepsPerChunk * TrajGen.Dt
    withMod(spark, mod(spark, nObjects, nChunks * stepsPerChunk)) { (df, _) =>
      val dir = Files.createTempDirectory("retratree")
      val s2tParams = S2TClustering.Params()
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
                qut.nClusters, base.nClusters,
                qut.nReusedChunks, qut.nRecomputedChunks)
        }
        E2Result(built, tree.chunks.size, rows)
      } finally {
        dir.toFile.listFiles.foreach(f => Files.delete(f.toPath)) // the tree's flat level 4
        Files.delete(dir)
      }
    }
  }

  def formatE2(r: E2Result): String = {
    val b = r.build.ms
    val head = s"ReTraTree build (one-time): voting ${b("voting")} ms, " +
      s"write ${b("write")} ms, cluster ${b("cluster")} ms, ${r.nChunks} chunks\n"
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
    val trajs = Series.byObject(labeled.map(lp => (lp.objId, lp.t, lp.x, lp.y, 0.0)))

    /** One method's row: every planted sample paired with the cluster that
      * `labelOf` gives its (obj_id, t).
      */
    def row(method: String, nClusters: Int, spans: Spans, labelOf: Map[(Long, Long), Int]): E3Row = {
      val pairs = labeled.toSeq.map(lp => lp.label -> labelOf.getOrElse((lp.objId, lp.t),
        throw new IllegalStateException(s"$method left sample (${lp.objId}, ${lp.t}) unlabelled")))
      E3Row(method, Quality.ari(pairs), Quality.purity(pairs), Quality.groupRecall(pairs),
            nClusters, spans.totalMs)
    }

    // S2T labels through its sub-trajectories.
    val (s2t, s2tSpans) = withMod(spark, p)((df, _) => record(S2TClustering.run(df, S2TClustering.Params())))
    val clusterOf = s2t.assignments.map(a => (a.objId, a.subId) -> a.clusterId).toMap
    val s2tRow = row("S2T-Clustering", s2t.nClusters, s2tSpans,
      s2t.subs.flatMap(s => s.ts.map(t => (s.objId, t) -> clusterOf(s.key))).toMap)

    // TRACLUS labels through segment index ranges. Consecutive segments share
    // an end sample; the later one is added last, so it keeps that sample.
    val ((segs, segLabels), traclusSpans) = record(Traclus.run(trajs.toSeq, Traclus.Params()))
    val tsOf = trajs.map(s => s.objId -> s.ts).toMap
    val traclusRow = row("TRACLUS", segLabels.filter(_ >= 0).distinct.length, traclusSpans,
      segs.zip(segLabels).flatMap { case (seg, c) =>
        (seg.i0 to seg.i1).map(i => (seg.objId, tsOf(seg.objId)(i)) -> c)
      }.toMap)

    // T-OPTICS labels whole trajectories.
    val (toLabels, topticsSpans) = record(TOptics.run(trajs, TOptics.Params()))
    val topticsRow = row("T-OPTICS", toLabels.filter(_ >= 0).distinct.length, topticsSpans,
      trajs.zip(toLabels).flatMap { case (s, c) => s.ts.map(t => (s.objId, t) -> c) }.toMap)

    // Convoys label the samples of each member inside the convoy's span; a
    // sample in several convoys goes to the largest, which is added last.
    val (convoys, convoySpans) = record(Convoys.run(
      labeled.map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y)),
      Convoys.Params(eps = 8.0, minObjs = 4, minDuration = 6)))
    val convoyRow = row("Convoys", convoys.length, convoySpans,
      labeled.map(lp => (lp.objId, lp.t) -> -1).toMap ++
        (for ((c, i) <- convoys.sortBy(-_.objIds.size).zipWithIndex.reverse; o <- c.objIds;
              t <- tsOf(o) if t >= c.tStart && t <= c.tEnd) yield (o, t) -> i))

    Seq(s2tRow, traclusRow, topticsRow, convoyRow)
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
      val p = mod(spark, n, tSteps)
      // Summing the vote column forces every vote, so no optimizer rule can
      // prune the computation being timed.
      val (setSum, setSpans) = withMod(spark, p)((df, _) =>
        record(Voting.votes(df, sigma).agg(sum("vote")).first().getDouble(0)))
      // The same points in the same order as the DataFrame's.
      val local = TrajGen.generateLocal(p).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
      val (naive, naiveSpans) = record { NaiveVoting.votes(local, sigma) }
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
