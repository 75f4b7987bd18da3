package repro.perfbench

import org.apache.spark.sql.DataFrame
import repro.core.{QuTClustering, S2TClustering}
import repro.model.TrajPoint
import repro.retratree.ReTraTree
import repro.voting.Voting

import java.io.File
import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The ReTraTree side of the benchmark: the tree's shape, building it, its
  * level-4 footprint, the once-per-run checks, and QuT queries as checked
  * (and, when tracing, decomposed) operations.
  */
object Trees {
  val Chunks = 8
  val StepsPerChunk = 60
  val Tau: Long = StepsPerChunk * 10L
  /** Warm set-ups per run, after the cold one. */
  val SetupRepeats = 1
  /** Unaligned queries before the timed phase: the first takes about 1.5×
    * the steady time, and the next ones keep getting faster.
    */
  val WarmUpQueries = 6
  val s2t: S2TClustering.Params = S2TClustering.Params(maxReps = 128)

  /** `ReTraTree.build`, keeping only the tree of whatever it returns. */
  def build(points: DataFrame, params: ReTraTree.Params, dir: String): ReTraTree =
    (ReTraTree.build(points, params, dir): Any) match {
      case (t: ReTraTree, _) => t
      case t: ReTraTree      => t
    }

  /** Set up once cold, over the part of the input `part` keeps, to warm
    * up, then `SetupRepeats` times over all of it: make the points with
    * `points`, build a tree over them in a fresh directory. Only the full
    * set-ups are traced. Keeps the last tree. Returns the tree, its
    * directory, and each set-up's seconds, the cold one first.
    */
  def setUp(ctx: Ctx, params: ReTraTree.Params)(points: => DataFrame, part: DataFrame => DataFrame)
      : (ReTraTree, String, Seq[Double]) = {
    var last: (ReTraTree, String) = null
    def once(i: Int, input: => DataFrame): Double = {
      if (last != null) deleteTree(new File(last._2))
      val dir = new File(ctx.workDir, s"tree-$i").getPath
      Workload.seconds {
        val df = ctx.tracer.span("traj.generate") { val d = input.cache(); d.count(); d }
        last = (ctx.tracer.span("retratree.build")(build(df, params, dir)), dir)
        df.unpersist(blocking = true)
      }._2
    }
    val secs = ctx.tracer.paused(once(0, part(points))) +: (1 to SetupRepeats).map(once(_, points))
    (last._1, last._2, secs)
  }

  private def deleteTree(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }

  /** Level-4 footprint under `dir`: parquet files and their bytes. */
  def level4(dir: String): (Int, Long) = {
    val s = Files.walk(Path.of(dir))
    try {
      val files = s.iterator.asScala.filter(p => Files.isRegularFile(p) &&
                                           p.getFileName.toString.endsWith(".parquet")).toSeq
      (files.length, files.map(Files.size).sum)
    } finally s.close()
  }

  /** `WarmUpQueries` unaligned queries — the first level-4 reads are
    * several times slower than later ones — then aligned ones of every
    * width. A fixed count, so that every run follows the same schedule.
    * Returns the unaligned timings.
    */
  def warmUp(tree: ReTraTree, rnd: scala.util.Random): Seq[Double] = {
    val (lo, hi) = (tree.chunks.firstKey, tree.chunks.lastKey)
    val ms = (0 until WarmUpQueries).map { i =>
      val w = Windows.unaligned(rnd, tree.params.tau, lo, hi, 1 + i % (hi - lo).toInt)
      Workload.seconds(QuTClustering.query(tree, w.w0, w.w1))._2 * 1000
    }
    (1 to 200).foreach { j =>
      val w = Windows.aligned(rnd, tree.params.tau, lo, hi, 1 + j % (hi - lo + 1).toInt)
      QuTClustering.query(tree, w.w0, w.w1)
    }
    ms
  }

  /** Level-3 total: sub-trajectories assigned (to a cluster or as outlier). */
  def level3Total(tree: ReTraTree): Int =
    tree.chunks.valuesIterator.map(_.subChunks.map(_.assignments.length).sum).sum

  /** Whether the votes stored for `chunkId` equal the driver reference over
    * that chunk's input points, to within 1e-9.
    */
  def votesCheck(tree: ReTraTree, chunkId: Long, input: Seq[TrajPoint]): Option[String] = {
    val chunkPts = input.filter(p => math.floorDiv(p.t, tree.params.tau) == chunkId).toArray
    val expected = Voting.votesLocal(chunkPts, tree.params.s2t.sigma)
    val stored = tree.loadChunk(chunkId).flatMap(vs =>
      vs.ts.indices.map(i => (vs.objId, vs.ts(i)) -> vs.votes(i)))
    if (stored.length != expected.size)
      Some(s"chunk $chunkId stores ${stored.length} samples, input has ${expected.size}")
    else stored.collectFirst {
      case (k, v) if !expected.get(k).exists(e => math.abs(e - v) <= 1e-9) =>
        s"chunk $chunkId vote at $k: stored $v, reference ${expected.get(k)}"
    }
  }

  /** The aligned full-horizon answer against level 3: its members plus
    * outliers must be every sub-trajectory level 3 assigns.
    */
  def fullHorizonCheck(tree: ReTraTree): Option[String] = {
    val r = QuTClustering.query(tree, 0L, tree.chunks.lastKey * tree.params.tau + tree.params.tau)
    val got = r.clusters.map(_.nMembers).sum + r.outliers.length
    val want = level3Total(tree)
    if (got == want) None else Some(s"full horizon: $got members + outliers, level 3 has $want")
  }

  /** QuT queries over one tree as checked operations. An answer must keep
    * its representatives inside W, and must equal the earlier answer to the
    * same window at the same tree `version`. When tracing, the unaligned
    * windows' level-4 loads and re-clusterings are first done alone, so
    * that the operation's time can be split into them and a residual.
    */
  final class Querier(ctx: Ctx, tree: ReTraTree) {
    var version = 0
    private val answers = mutable.Map.empty[(Window, Int), String]
    val residualMs = mutable.ArrayBuffer.empty[Double]
    val reused = mutable.ArrayBuffer.empty[Int]
    val recomputed = mutable.ArrayBuffer.empty[Int]
    val loadRows = mutable.ArrayBuffer.empty[Int]
    private def tau = tree.params.tau

    /** Ask QuT each window of `ws`, one after the other, as one operation. */
    def query(kind: String, ws: Window*): Unit = {
      val unaligned = if (ctx.trace) ws.filterNot(_.aligned) else Seq.empty
      val parts = unaligned.flatMap(decompose)
      ctx.ops.timed(kind)(ws.map(w => ctx.tracer.span("core.qut")(QuTClustering.query(tree, w.w0, w.w1)))) {
        rs => ws.zip(rs).iterator.map { case (w, r) => check(w, r) }.collectFirst { case Some(m) => m }
      }
      if (unaligned.nonEmpty && !ctx.ops.lastMs.isNaN) {
        residualMs += Stats.residual(ctx.ops.lastMs, parts)
        unaligned.foreach { w =>
          val (nReused, nRecomputed) = Windows.expectedCounts(w, tau, tree.chunks.contains)
          reused += nReused; recomputed += nRecomputed
        }
      }
    }

    private def check(w: Window, r: QuTClustering.Result): Option[String] =
      Checks.repsInside(r, w).orElse {
        val d = Checks.qut(r)
        answers.get((w, version)) match {
          case Some(prev) if prev != d => Some(s"window $w answered $d, earlier $prev")
          case _                       => answers((w, version)) = d; None
        }
      }

    /** The boundary chunks' loads and re-clusterings, each in its own span;
      * returns their wall times.
      */
    private def decompose(w: Window): Seq[Double] =
      Windows.boundaryChunks(w, tau, tree.chunks.contains).flatMap { c =>
        val lo = math.max(w.w0, tree.chunkStart(c))
        val hi = math.min(w.w1, tree.chunkEnd(c))
        val (series, loadS) = Workload.seconds(ctx.tracer.span("retratree.load_chunk")(tree.loadChunk(c)))
        loadRows += series.map(_.ts.length).sum
        val clipped = series.flatMap { vs =>
          val keep = vs.ts.indices.filter(i => vs.ts(i) >= lo && vs.ts(i) < hi).toArray
          if (keep.isEmpty) None
          else Some(vs.copy(ts = keep.map(vs.ts), xs = keep.map(vs.xs), ys = keep.map(vs.ys),
                            votes = keep.map(vs.votes)))
        }
        val (_, clusterS) = Workload.seconds(
          ctx.tracer.span("retratree.cluster_series")(tree.clusterSeries(c, clipped)))
        Seq(loadS * 1000, clusterS * 1000)
      }

    /** The per-layer metrics of the queries made so far. */
    def layerMetrics(): Map[String, Double] = {
      val t = ctx.tracer
      def mean(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else xs.sum / xs.length
      Map(
        "retratree.load_chunk_ms" -> Stats.median(t.wallMs("retratree.load_chunk")),
        "retratree.load_chunk_jobs" -> t.medianWork("retratree.load_chunk")(_.jobs),
        "retratree.load_chunk_bytes_read" -> t.medianWork("retratree.load_chunk")(_.inputBytes),
        "retratree.load_chunk_rows" -> Stats.median(loadRows.map(_.toDouble).toSeq),
        "retratree.cluster_series_ms" -> Stats.median(t.wallMs("retratree.cluster_series")),
        "core.qut_residual_ms" -> Stats.median(residualMs.toSeq),
        "core.qut_reused_chunks" -> mean(reused.map(_.toDouble).toSeq),
        "core.qut_recomputed_chunks" -> mean(recomputed.map(_.toDouble).toSeq))
    }
  }

  /** Per-layer metrics of the tree's set-up and level 4. */
  def buildMetrics(ctx: Ctx, dir: String, nPoints: Int): Map[String, Double] = {
    val t = ctx.tracer
    val (files, bytes) = level4(dir)
    Map(
      "traj.generate_ms" -> Stats.median(t.wallMs("traj.generate")),
      "retratree.build_ms" -> Stats.median(t.wallMs("retratree.build")),
      "retratree.build_task_ms" -> t.medianWork("retratree.build")(_.taskMs),
      "retratree.build_shuffle_write_bytes" -> t.medianWork("retratree.build")(_.shuffleWriteBytes),
      "retratree.level4_files" -> files.toDouble,
      "retratree.level4_bytes" -> bytes.toDouble,
      "retratree.level4_bytes_per_point" -> bytes.toDouble / nPoints)
  }
}
