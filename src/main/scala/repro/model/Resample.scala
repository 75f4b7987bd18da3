package repro.model

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.lit

/** Resampling of raw (possibly irregular) GPS traces onto a regular time grid.
  *
  * The voting phase groups samples by timestamp: only positions at *equal*
  * timestamps vote, so all trajectories must be sampled on the same grid.
  * Hermes assumes near-uniform sampling of the input MOD; we make the
  * assumption explicit by interpolating every trajectory at multiples of
  * `dt` within its lifespan.
  */
object Resample {

  /** Linear interpolation of one sorted trajectory at grid timestamps
    * (multiples of `dt` within [ts.head, ts.last]).
    */
  def resampleOne(objId: Long, ts: Array[Long], xs: Array[Double], ys: Array[Double],
                  dt: Long): Array[TrajPoint] = {
    require(dt > 0, s"dt must be positive, got $dt")
    if (ts.isEmpty) return Array.empty
    val first = math.ceil(ts.head.toDouble / dt).toLong * dt
    val out = Array.newBuilder[TrajPoint]
    var t = first
    var j = 0
    while (t <= ts.last) {
      while (j + 1 < ts.length && ts(j + 1) <= t) j += 1
      val p =
        if (ts(j) == t || j + 1 >= ts.length) TrajPoint(objId, t, xs(j), ys(j))
        else {
          val f = (t - ts(j)).toDouble / (ts(j + 1) - ts(j)).toDouble
          TrajPoint(objId, t, xs(j) + f * (xs(j + 1) - xs(j)), ys(j) + f * (ys(j + 1) - ys(j)))
        }
      out += p
      t += dt
    }
    out.result()
  }

  /** Resample a MOD DataFrame (obj_id, t, x, y) onto the `dt` grid, one
    * trajectory at a time (each object's trace is small, the MOD may not be).
    */
  def resample(points: DataFrame, dt: Long): Dataset[TrajPoint] = {
    val spark = points.sparkSession
    import spark.implicits._
    Series.byObject(points.withColumn("vote", lit(0.0)))
      .flatMap(s => resampleOne(s.objId, s.ts, s.xs, s.ys, dt))
  }
}
