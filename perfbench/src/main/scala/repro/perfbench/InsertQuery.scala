package repro.perfbench

import org.apache.spark.sql.functions.col
import repro.exp.Experiments
import repro.model.TrajPoint
import repro.retratree.ReTraTree
import repro.traj.TrajGen

import scala.util.Random

/** `insert-query`: inserts beside reads. Set-up builds a ReTraTree over
  * part of the MOD; the timed phase streams the held-out trajectories
  * through `insertTrajectory` in batches, and after each batch asks QuT
  * over the chunks the batch touched: one unaligned window (two on every
  * fourth batch), and an aligned window of every width. Held-out noise objects match no representative,
  * so they fill the chunks' outlier buffers until re-clustering fires.
  *
  * Main operation: the unaligned query. Aligned sweeps, the aligned windows
  * of every width one after the other, are timed too; their median is a
  * per-layer metric, as is the insert throughput: trajectories inserted per
  * second of insert time, re-clusterings included, as the median over
  * rounds — a round being the batches that bring the noise in the outlier
  * buffers up to the re-clustering threshold.
  */
object InsertQuery extends Workload {
  /** The tree is built over the 160 objects that are not held out. */
  val Objects = 416
  val HeldNoise = 64
  val HeldGroup = 192
  /** One batch: this many noise and group trajectories. Inserts take well
    * under a millisecond each, so a batch brings sixteen of them, to give
    * the insert throughput enough work to measure.
    */
  val BatchNoise = 4
  val BatchGroup = 12
  val ReclusterThreshold = 4
  /** Stream length per requested second; a batch takes about half a
    * second on 4 cores, most of it the unaligned query.
    */
  val BatchesPerSecond = 2.0
  /** The cold set-up builds over every this-many-th object only: it warms
    * up the same code as a cold full build, about 5 s faster on 4 cores.
    */
  val WarmUpSetupEvery = 8
  /** Aligned sweeps per batch: a sweep takes about 5 ms, so it is sampled
    * more often than the unaligned query.
    */
  val SweepsPerBatch = 3
  /** Every this many batches, the unaligned query is asked twice. */
  val RepeatEvery = 4

  def run(ctx: Ctx): Report = {
    import ctx._
    val mod = Experiments.mod(spark, Objects, Trees.Chunks * Trees.StepsPerChunk, seed = seed)
    val rnd = new Random(seed)
    val labeled = TrajGen.generateLocal(mod)
    val nGroupObjs = mod.nGroups * mod.perGroup
    // Held-out group members are ones that stay with their group, so that
    // every seed inserts the same mix of matching and missing pieces.
    val diverging = labeled.filter(lp => lp.objId < nGroupObjs && lp.label < 0).map(_.objId).toSet
    val noise = rnd.shuffle((nGroupObjs until mod.nObjects).map(_.toLong)).take(HeldNoise)
    val group = rnd.shuffle((0L until nGroupObjs).filterNot(diverging)).take(HeldGroup)
    val held = (noise ++ group).toSet
    val byObj = labeled.filter(lp => held(lp.objId))
      .map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y)).groupBy(_.objId)
    // Batches of the same make-up, so that re-clusterings recur evenly.
    val batches = noise.grouped(BatchNoise).zip(group.grouped(BatchGroup))
      .map { case (n, g) => (n ++ g).map(byObj).toSeq }.toIndexedSeq
    val batchesPerRound = math.max(1, ReclusterThreshold / BatchNoise)

    val params = ReTraTree.Params(tau = Trees.Tau, reclusterThreshold = ReclusterThreshold,
                                  s2t = Trees.s2t)
    val (tree, dir, setupS) = Trees.setUp(ctx, params)(
      TrajGen.points(TrajGen.generate(spark, mod)).where(!col("obj_id").isin(held.toSeq: _*)),
      _.where(col("obj_id") % WarmUpSetupEvery === 0))
    val built = labeled.filterNot(lp => held(lp.objId)).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    ops.check("votes")(Trees.votesCheck(tree, tree.chunks.keys.toSeq(rnd.nextInt(tree.chunks.size)), built))
    ops.check("full-horizon")(Trees.fullHorizonCheck(tree))
    val warm = Trees.warmUp(tree, rnd)

    val q = new Trees.Querier(ctx, tree)
    var inserted = 0; var pieces = 0; var matched = 0; var reclusters = 0
    val phase = rnd.nextInt(Trees.Chunks)
    // A fixed stream, BatchesPerSecond batches per requested second, so that
    // every run inserts the same trajectories into the same tree whatever
    // the machine's speed: the tree grows as the stream goes, and so does
    // the cost of inserts and of aligned queries.
    val nBatches = math.min(batches.length, math.ceil(seconds * BatchesPerSecond).toInt)
    val roundMs = new Array[Double](nBatches / batchesPerRound + 1)
    for (b <- 0 until nBatches) {
      val batch = batches(b)
      for (traj <- batch) {
        val touched = traj.map(p => math.floorDiv(p.t, Trees.Tau)).distinct
        def state = touched.map(c => tree.chunks.get(c).fold((0, 0))(cc =>
          (cc.appended.length, cc.pendingOutliers.length)))
        val before = state
        ops.timed("insert")(tracer.span("retratree.insert")(tree.insertTrajectory(traj)))(_ => None)
        if (!ops.lastMs.isNaN) roundMs(b / batchesPerRound) += ops.lastMs
        val after = state
        inserted += 1; pieces += touched.length
        matched += before.zip(after).count { case (x, y) => y._1 > x._1 }
        reclusters += before.zip(after).count { case (x, y) => y._2 < x._2 }
      }
      q.version += 1
      val chunks = batch.flatten.map(p => math.floorDiv(p.t, Trees.Tau))
      val (lo, hi) = (chunks.min, chunks.max)
      (1 to SweepsPerBatch).foreach { _ =>
        // Back to back, the sweeps after one batch shared one speed; a
        // pause evens them out.
        Thread.sleep(2)
        q.query("aligned", (1 to (hi - lo + 1).toInt).map(k => Windows.aligned(rnd, Trees.Tau, lo, hi, k)): _*)
      }
      if (hi > lo) {
        val ws = (0 to (if (b % RepeatEvery == 1) 1 else 0)).map(j =>
          Windows.unaligned(rnd, Trees.Tau, lo, hi, 1 + (phase + b + j) % (hi - lo).toInt))
        ws.foreach(q.query("unaligned", _))
        if (b % RepeatEvery == RepeatEvery - 1) q.query("unaligned", ws.head)
      }
    }
    val heap = Workload.heapLiveMb()

    val insertMs = ops.ms("insert")
    Report(
      endToEnd = Map(
        "setup_s" -> Stats.median(setupS.drop(1)),
        "op_ms_p50" -> Stats.median(ops.ms("unaligned")),
        "heap_live_mb" -> heap),
      perLayer = if (!trace) Map.empty else {
        tracer.finish()
        Trees.buildMetrics(ctx, dir, built.length) ++ q.layerMetrics() ++ Map(
          "core.qut_aligned_sweep_ms" -> Stats.median(ops.ms("aligned")),
          "retratree.insert_ms" -> insertMs.sum / math.max(1, insertMs.length),
          "retratree.insert_per_s" -> Stats.median(roundMs.take(nBatches / batchesPerRound).toSeq.map(ms =>
            batchesPerRound * (BatchNoise + BatchGroup) / (ms / 1000))),
          "retratree.recluster_events" -> reclusters.toDouble / math.max(1, inserted),
          "retratree.insert_matched_frac" -> matched.toDouble / math.max(1, pieces))
      },
      detail = Map("points_built" -> built.length, "objects" -> mod.nObjects,
                   "held_out" -> held.size, "batches" -> nBatches, "batches_available" -> batches.length,
                   "inserted" -> inserted, "pieces" -> pieces, "matched_pieces" -> matched,
                   "recluster_events" -> reclusters, "setup_s" -> setupS, "warmup_ms" -> warm))
  }
}
