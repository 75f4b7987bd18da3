package repro.voting

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import repro.model.{Series, TrajPoint}

/** The voting step of NaTS (phase 1 of S2T-Clustering).
  *
  * Each sample of a trajectory is voted by every other object that is alive at
  * the same timestamp, with a Gaussian kernel over their distance:
  * `vote(r, t) = Σ_{o ≠ r} exp(-d(r(t), o(t))² / 2σ²)`, truncated at 3σ
  * (contribution < 0.012 beyond that). The per-sample vote is the
  * representativeness signal the segmentation phase then homogenizes; its
  * physical meaning is "how many objects co-move with r at time t".
  *
  * A vote at time t involves only the objects alive at t, so one routine,
  * [[byTimestamp]], votes: it groups rows by t and runs [[kernel]], a grid of
  * 3σ cells over one timestamp's points, once per t. [[votesLocal]] runs it on
  * the driver; [[votes]] runs it on each partition of one shuffle by t. This
  * is the set-at-a-time, spatially indexed formulation whose speedup over
  * tuple-at-a-time evaluation the demo claims (see
  * `repro.baselines.NaiveVoting` for the comparator).
  */
object Voting {

  /** Kernel truncation radius: contributions beyond `3σ` are dropped. */
  def cutoff(sigma: Double): Double = 3.0 * sigma

  /** Grid cells are this much wider than the cutoff, so that rounding in
    * `x / cell` cannot put two points within the cutoff two cells apart.
    */
  private val CellSlack = 1.0 + 1e-9

  /** The forward half of a cell's 3x3 neighbourhood: with the cell itself
    * it covers every adjacent pair of cells exactly once.
    */
  private val Forward = Array((1, -1), (1, 0), (1, 1), (0, 1))

  /** Distributed voting. Input: (obj_id, t, x, y) sampled on one common time
    * grid, at most one sample per (obj_id, t). Output: (obj_id, t, x, y,
    * vote), one row per input row (vote 0 for samples nobody is near).
    * Evaluation throws (root cause `IllegalArgumentException`) on duplicate
    * (obj_id, t) samples and on non-finite x or y.
    *
    * The one shuffle by t goes into `spark.sparkContext.defaultParallelism`
    * partitions, one per core, whatever `spark.sql.shuffle.partitions` says,
    * and its map side reads the input in at most as many tasks, whatever the
    * input's partitioning: more tasks than cores only add per-task and
    * per-block overhead to a job this short, on either side of the exchange.
    * The map side is a `coalesce`, which Catalyst's `CollapseRepartition`
    * would drop from directly under the `repartition` by t; a typed identity
    * step between them keeps it. The map side streams its rows into the
    * shuffle, so the reduce side alone bounds memory: each of its partitions
    * is held in memory while grouped, about points / `defaultParallelism`
    * rows, 48k for E4's largest MOD (192k points) on 4 cores.
    */
  def votes(points: DataFrame, sigma: Double): DataFrame =
    votes(points, sigma, points.sparkSession.sparkContext.defaultParallelism)

  /** [[votes]] with `partitions` map tasks at most and the shuffle into `partitions` partitions. */
  private[voting] def votes(points: DataFrame, sigma: Double, partitions: Int): DataFrame = {
    require(sigma > 0, s"sigma must be positive, got $sigma")
    val spark = points.sparkSession
    import spark.implicits._
    // The typed identity step keeps the coalesce from being collapsed into the repartition.
    points.select($"obj_id", $"t", $"x", $"y").coalesce(partitions)
      .as[(Long, Long, Double, Double)].mapPartitions(rows => rows).toDF("obj_id", "t", "x", "y")
      .repartition(partitions, $"t").as[(Long, Long, Double, Double)]
      .mapPartitions(byTimestamp(_, sigma)).toDF("obj_id", "t", "x", "y", "vote")
  }

  /** [[votes]], collected and grouped on the driver into one series per
    * object, in object order ([[Series.byObject]]): the one Spark job, and
    * its one shuffle, of S2T-Clustering and of the ReTraTree build.
    */
  def votedSeries(points: DataFrame, sigma: Double): Array[Series] = {
    val spark = points.sparkSession
    import spark.implicits._
    Series.byObject(votes(points, sigma).as[(Long, Long, Double, Double, Double)].collect())
  }

  /** Voting on the driver: [[byTimestamp]] over all the points. Keyed by
    * (obj_id, t); same preconditions as [[votes]].
    */
  def votesLocal(points: Array[TrajPoint], sigma: Double): Map[(Long, Long), Double] =
    byTimestamp(points.iterator.map(p => (p.objId, p.t, p.x, p.y)), sigma)
      .map(r => (r._1, r._2) -> r._5).toMap

  /** The one voting routine: rows (obj_id, t, x, y), grouped by t, [[kernel]] once per t. */
  private def byTimestamp(rows: Iterator[(Long, Long, Double, Double)], sigma: Double) =
    rows.toArray.groupBy(_._2).iterator.flatMap { case (t, pts) =>
      val v = kernel(t, pts.map(_._1), pts.map(_._3), pts.map(_._4), sigma)
      pts.indices.iterator.map(i => (pts(i)._1, t, pts(i)._3, pts(i)._4, v(i)))
    }

  /** The votes of one timestamp's samples: `objs(i)` at (`xs(i)`, `ys(i)`),
    * all at time `t` (used only in error messages). Returns the votes aligned
    * with the input.
    *
    * Points are hashed into cells of side (just over) 3σ; each unordered pair
    * within a cell, or between a cell and one of its [[Forward]] neighbours,
    * is visited once, and a pair with `d² ≤ (3σ)²` adds `exp(-d²/2σ²)` to
    * both ends. Duplicate objects are rejected up front, so every visited
    * pair is a pair of different objects.
    */
  def kernel(t: Long, objs: Array[Long], xs: Array[Double], ys: Array[Double],
             sigma: Double): Array[Double] = {
    require(sigma > 0, s"sigma must be positive, got $sigma")
    val n = objs.length
    require(xs.length == n && ys.length == n, s"parallel arrays must agree: $n/${xs.length}/${ys.length}")
    for (i <- 0 until n)
      require(xs(i).isFinite && ys(i).isFinite,
        s"non-finite position (${xs(i)}, ${ys(i)}) of object ${objs(i)} at t=$t")
    val ids = objs.clone()
    java.util.Arrays.sort(ids)
    for (i <- 1 until n)
      require(ids(i) != ids(i - 1), s"duplicate samples of object ${ids(i)} at t=$t")

    val cut2 = cutoff(sigma) * cutoff(sigma)
    val inv2s2 = 1.0 / (2 * sigma * sigma)
    val cell = cutoff(sigma) * CellSlack
    val cells = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]
    for (i <- 0 until n)
      cells.getOrElseUpdate(cellKey(axisCell(xs(i), cell), axisCell(ys(i), cell)),
                            mutable.ArrayBuffer.empty[Int]) += i

    val out = new Array[Double](n)
    def pair(i: Int, j: Int): Unit = {
      val dx = xs(i) - xs(j); val dy = ys(i) - ys(j)
      val d2 = dx * dx + dy * dy
      if (d2 <= cut2) {
        val w = math.exp(-d2 * inv2s2)
        out(i) += w; out(j) += w
      }
    }
    cells.foreachEntry { (key, here) =>
      for (a <- here.indices; b <- a + 1 until here.length) pair(here(a), here(b))
      val cx = (key >> 32).toInt; val cy = key.toInt
      for ((dx, dy) <- Forward; there <- cells.get(cellKey(cx + dx, cy + dy)); i <- here; j <- there)
        pair(i, j)
    }
    out
  }

  /** Grid cell of coordinate `v` along one axis, clamped so that a cell and
    * its neighbours fit in an Int. Clamping only merges far-off cells, which
    * adds candidate pairs but never separates two points within the cutoff.
    */
  private def axisCell(v: Double, cell: Double): Int =
    math.max(Int.MinValue + 1L, math.min(Int.MaxValue - 1L, math.floor(v / cell).toLong)).toInt

  private def cellKey(cx: Int, cy: Int): Long = (cx.toLong << 32) | (cy & 0xffffffffL)
}
