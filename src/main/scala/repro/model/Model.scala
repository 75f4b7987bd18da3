package repro.model

/** Core data model for the Moving Object Database (MOD).
  *
  * A trajectory is the ordered sequence of [[TrajPoint]]s of one object; as in
  * Hermes we assume one trajectory per object id, so `objId` doubles as the
  * trajectory id. Time is in integral seconds, space is planar (x, y) — the
  * "3D" of the paper's pg3D-Rtree is (x, y, t).
  */
final case class TrajPoint(objId: Long, t: Long, x: Double, y: Double)

/** A labelled point, used by the synthetic generator: `label` is the planted
  * co-movement group id at time `t`, or -1 for noise / no group. Labels exist
  * only for quality scoring — no algorithm reads them.
  */
final case class LabeledPoint(objId: Long, t: Long, x: Double, y: Double, label: Int)

/** One object's samples as parallel arrays sorted by `ts`: the in-memory
  * form of a trajectory, of a chunk piece of one, and of a sub-trajectory.
  * `votes(i)` is the voting value of sample i (how many objects co-move
  * with it, kernel-weighted); zeros before voting.
  */
final case class Series(
    objId: Long,
    ts: Array[Long],
    xs: Array[Double],
    ys: Array[Double],
    votes: Array[Double]
) {
  require(ts.length == xs.length && xs.length == ys.length && ys.length == votes.length,
    s"parallel arrays must agree: ${ts.length}/${xs.length}/${ys.length}/${votes.length}")

  def tStart: Long = ts.head
  def tEnd: Long   = ts.last
  /** Lifespan in seconds (0 for a single sample). */
  def duration: Long = tEnd - tStart
  def size: Int = ts.length

  /** Minimum bounding box in (x, y, t). */
  def mbb: (Double, Double, Double, Double, Long, Long) = {
    var minX = Double.MaxValue; var maxX = Double.MinValue
    var minY = Double.MaxValue; var maxY = Double.MinValue
    var i = 0
    while (i < xs.length) {
      if (xs(i) < minX) minX = xs(i); if (xs(i) > maxX) maxX = xs(i)
      if (ys(i) < minY) minY = ys(i); if (ys(i) > maxY) maxY = ys(i)
      i += 1
    }
    (minX, maxX, minY, maxY, tStart, tEnd)
  }

  /** The samples with index a <= i < b. */
  def slice(a: Int, b: Int): Series =
    Series(objId, ts.slice(a, b), xs.slice(a, b), ys.slice(a, b), votes.slice(a, b))

  /** The samples with lo <= t < hi; None when there are none. */
  def clip(lo: Long, hi: Long): Option[Series] = {
    val a = ts.count(_ < lo)
    val b = ts.count(_ < hi)
    if (a < b) Some(slice(a, b)) else None
  }
}

object Series {

  /** Rows (objId, t, x, y, vote) of one object, in any order, as a series
    * sorted by t.
    */
  def fromRows(rows: Array[(Long, Long, Double, Double, Double)]): Series = {
    require(rows.nonEmpty, "a series needs at least one row")
    val objId = rows.head._1
    require(rows.forall(_._1 == objId),
      s"rows of several objects: ${rows.map(_._1).distinct.mkString(", ")}")
    val s = rows.sortBy(_._2)
    Series(objId, s.map(_._2), s.map(_._3), s.map(_._4), s.map(_._5))
  }

  /** Rows (objId, t, x, y, vote) of any objects, in any order, as one
    * series per object in object order: the program's one grouping of
    * samples by object.
    */
  def byObject(rows: Array[(Long, Long, Double, Double, Double)]): Array[Series] =
    rows.groupBy(_._1).valuesIterator.map(fromRows).toArray.sortBy(_.objId)
}

/** A sub-trajectory produced by the segmentation phase: a maximal run of
  * consecutive samples of one object with homogeneous voting. `subId`s
  * number one object's sub-trajectories in temporal order.
  */
final case class SubTraj(series: Series, subId: Int) {
  def objId: Long = series.objId
  def ts: Array[Long] = series.ts
  def xs: Array[Double] = series.xs
  def ys: Array[Double] = series.ys
  def votes: Array[Double] = series.votes
  def tStart: Long = series.tStart
  def tEnd: Long = series.tEnd
  def size: Int = series.size
  /** Mean voting value — the sub-trajectory's representativeness. */
  def meanVote: Double = if (votes.isEmpty) 0.0 else votes.sum / votes.length
  /** Total voting mass; the SaCO sampling score (representativeness × lifespan). */
  def score: Double = votes.sum
  /** Global key, unique within one MOD clustering run. */
  def key: (Long, Int) = (objId, subId)
}

/** Assignment of one sub-trajectory to a cluster.
  *
  * `clusterId` is the index of the representative in the sampling set, or
  * [[Assignment.Outlier]] (-1) if the sub-trajectory fits no representative.
  * `dist` is the time-synchronized distance to the chosen representative
  * (infinity for outliers).
  */
final case class Assignment(objId: Long, subId: Int, clusterId: Int, dist: Double)

object Assignment {
  val Outlier: Int = -1
}
