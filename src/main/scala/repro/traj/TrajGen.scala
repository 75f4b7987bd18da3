package repro.traj

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.model.LabeledPoint

import scala.util.Random

/** Synthetic Moving Object Database generator.
  *
  * Stands in for the paper's proprietary MOD of aircraft approaching London
  * airports (see DESIGN.md substitution table). It plants the structure the
  * demo exercises:
  *
  *  - co-moving *groups* ("lanes"): objects that travel together along a
  *    shared linear path with small lateral offsets and per-sample jitter;
  *  - *partial membership*: a configurable fraction of each group's members
  *    diverges at mid-life onto its own heading — this is exactly what makes
  *    clustering at the sub-trajectory level necessary (a whole-trajectory
  *    method is forced to average the two behaviours);
  *  - *noise objects*: smooth random walks belonging to no group.
  *
  * Every point carries the planted `label` (group id, or -1 for noise and for
  * post-divergence samples) used only by quality metrics.
  */
object TrajGen {

  /** Sampling period (s). */
  val Dt: Long = 10L
  /** Side of the square that start points are drawn from. */
  val Extent: Double = 1000.0
  /** Distance moved per 10 s. */
  val Speed: Double = 8.0
  /** Standard deviation of a member's lateral offset from its lane. */
  val LaneWidth: Double = 2.0

  /** Generator parameters. Time is `tSteps` samples at `Dt` seconds, and
    * every group lives over the whole horizon. `switchFrac` of each group's
    * members diverge at mid-life.
    */
  final case class Params(
      nGroups: Int = 5,
      perGroup: Int = 10,
      nNoise: Int = 10,
      tSteps: Int = 120,
      jitter: Double = 0.4,
      switchFrac: Double = 0.0,
      seed: Long = 42L
  ) {
    def nObjects: Int = nGroups * perGroup + nNoise
  }

  /** Generate the MOD on the driver (deterministic in `p.seed`). */
  def generateLocal(p: Params): Array[LabeledPoint] = {
    val rnd = new Random(p.seed)
    val out = Array.newBuilder[LabeledPoint]
    var objId = 0L

    // Co-moving groups along lanes.
    for (g <- 0 until p.nGroups) {
      val x0 = rnd.nextDouble() * Extent
      val y0 = rnd.nextDouble() * Extent
      val theta = rnd.nextDouble() * 2 * math.Pi
      val (dxStep, dyStep) = (math.cos(theta) * Speed * Dt / 10.0,
                              math.sin(theta) * Speed * Dt / 10.0)
      val span = math.max(2, p.tSteps)
      val nSwitch = (p.perGroup * p.switchFrac).toInt
      for (m <- 0 until p.perGroup) {
        val perp = rnd.nextGaussian() * LaneWidth
        val (ox, oy) = (-math.sin(theta) * perp, math.cos(theta) * perp)
        val switches = m < nSwitch
        val switchStep = span / 2
        // Divergent heading after the switch point.
        val thetaD = theta + (if (rnd.nextBoolean()) 1 else -1) * (math.Pi / 2 + rnd.nextDouble() * math.Pi / 2)
        val (ddx, ddy) = (math.cos(thetaD) * Speed * Dt / 10.0,
                          math.sin(thetaD) * Speed * Dt / 10.0)
        var px = x0 + ox; var py = y0 + oy
        for (s <- 0 until span) {
          val diverged = switches && s >= switchStep
          if (s > 0) { if (diverged) { px += ddx; py += ddy } else { px += dxStep; py += dyStep } }
          val jx = rnd.nextGaussian() * p.jitter
          val jy = rnd.nextGaussian() * p.jitter
          out += LabeledPoint(objId, s * Dt, px + jx, py + jy, if (diverged) -1 else g)
        }
        objId += 1
      }
    }

    // Noise objects: smooth random walks over the whole horizon.
    for (_ <- 0 until p.nNoise) {
      var px = rnd.nextDouble() * Extent
      var py = rnd.nextDouble() * Extent
      var theta = rnd.nextDouble() * 2 * math.Pi
      for (s <- 0 until p.tSteps) {
        if (s > 0) {
          theta += rnd.nextGaussian() * 0.3
          px += math.cos(theta) * Speed * Dt / 10.0
          py += math.sin(theta) * Speed * Dt / 10.0
        }
        out += LabeledPoint(objId, s * Dt, px, py, -1)
      }
      objId += 1
    }
    out.result()
  }

  /** Generate the MOD as a DataFrame (obj_id, t, x, y, label), sliced into
    * partitions so that no task carries the whole MOD.
    */
  def generate(spark: SparkSession, p: Params): DataFrame = {
    import spark.implicits._
    val slices = math.max(1, math.min(64, p.nObjects / 4))
    spark.sparkContext.parallelize(generateLocal(p).toIndexedSeq, slices)
      .toDF("obj_id", "t", "x", "y", "label")
  }

  /** Strip the planted label — algorithms only ever see (obj_id, t, x, y). */
  def points(labeled: DataFrame): DataFrame =
    labeled.select("obj_id", "t", "x", "y")
}
