package repro.model

import org.scalatest.funsuite.AnyFunSuite

class TrajDistanceSpec extends AnyFunSuite {

  private def line(objId: Long, t0: Long, n: Int, dt: Long, x0: Double, y0: Double,
                   dx: Double, dy: Double): Series = {
    val ts = Array.tabulate(n)(i => t0 + i * dt)
    val xs = Array.tabulate(n)(i => x0 + i * dx)
    val ys = Array.tabulate(n)(i => y0 + i * dy)
    Series(objId, ts, xs, ys, new Array[Double](n))
  }

  test("distance of a trajectory to itself is zero") {
    val a = line(1, 0, 10, 10, 0, 0, 1, 0)
    val (d, overlap) = TrajDistance.timeSyncStats(a, a)
    assert(d == 0.0)
    assert(overlap == 90L)
  }

  test("parallel trajectories at constant offset have that offset as distance") {
    val a = line(1, 0, 10, 10, 0, 0, 1, 0)
    val b = line(2, 0, 10, 10, 0, 5, 1, 0)
    val (d, _) = TrajDistance.timeSyncStats(a, b)
    assert(math.abs(d - 5.0) < 1e-9)
  }

  test("temporally disjoint trajectories are incomparable (+inf, 0 overlap)") {
    val a = line(1, 0, 5, 10, 0, 0, 1, 0)
    val b = line(2, 1000, 5, 10, 0, 0, 1, 0)
    val (d, overlap) = TrajDistance.timeSyncStats(a, b)
    assert(d.isPosInfinity && overlap == 0L)
  }

  test("identical shapes at different times are NOT close — time-awareness") {
    // Same spatial path, shifted by an hour: must be incomparable.
    val a = line(1, 0, 10, 10, 0, 0, 1, 1)
    val b = line(2, 3600, 10, 10, 0, 0, 1, 1)
    assert(TrajDistance.timeSyncStats(a, b)._1.isPosInfinity)
  }

  test("overlap is the intersection of lifespans") {
    val a = line(1, 0, 11, 10, 0, 0, 1, 0)   // [0, 100]
    val b = line(2, 50, 11, 10, 0, 0, 1, 0)  // [50, 150]
    val (_, overlap) = TrajDistance.timeSyncStats(a, b)
    assert(overlap == 50L)
  }

  test("interpolation: coarse sampling of the same line gives ~zero distance") {
    val a = line(1, 0, 101, 1, 0, 0, 1, 0)   // every second
    val b = line(2, 0, 11, 10, 0, 0, 10, 0)  // every 10 s, same speed/line
    val (d, _) = TrajDistance.timeSyncStats(a, b)
    assert(d < 1e-9)
  }

  test("distance is computed only over the common lifespan") {
    // b deviates wildly outside a's lifespan; distance must ignore it.
    val a = line(1, 50, 6, 10, 0, 0, 1, 0) // [50, 100]
    val bts = Array(0L, 50L, 60L, 70L, 80L, 90L, 100L, 1000L)
    val bxs = Array(999.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -999.0)
    val bys = Array(999.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -999.0)
    val b = Series(2, bts, bxs, bys, new Array[Double](8))
    val (d, _) = TrajDistance.timeSyncStats(a, b)
    assert(d < 1e-9)
  }

  test("asymmetry: stats are evaluated at the first argument's timestamps") {
    val a = line(1, 0, 2, 100, 0, 0, 100, 0)  // sparse
    val b = line(2, 0, 101, 2, 0, 1, 2, 0)    // dense, offset 1 in y
    val (dab, _) = TrajDistance.timeSyncStats(a, b)
    assert(math.abs(dab - 1.0) < 1e-9)
  }

  test("covers holds for a nearby co-temporal sub-trajectory") {
    val a = line(1, 0, 10, 10, 0, 0, 1, 0)
    val b = line(2, 0, 10, 10, 0, 2, 1, 0)
    assert(TrajDistance.coverDist(a, b, minOverlapFrac = 0.5) <= 3.0)
  }

  test("covers fails when distance exceeds eps") {
    val a = line(1, 0, 10, 10, 0, 0, 1, 0)
    val b = line(2, 0, 10, 10, 0, 50, 1, 0)
    assert(!(TrajDistance.coverDist(a, b, minOverlapFrac = 0.5) <= 3.0))
  }

  test("covers fails when the temporal overlap fraction is too small") {
    val a = line(1, 0, 101, 10, 0, 0, 0.1, 0)    // [0, 1000], x(t) = t/100
    val b = line(2, 900, 11, 10, 9.0, 0, 0.1, 0) // same path, alive only [900, 1000]
    assert(!(TrajDistance.coverDist(a, b, minOverlapFrac = 0.5) <= 5.0))
    assert(TrajDistance.coverDist(b, a, minOverlapFrac = 0.5) <= 5.0,
      "b is fully covered by a's lifespan, so the reverse direction holds")
  }

  test("coverDist equals time-sync distance when comparable") {
    val a = line(1, 0, 10, 10, 0, 0, 1, 0)
    val b = line(2, 0, 10, 10, 0, 4, 1, 0)
    assert(math.abs(TrajDistance.coverDist(a, b, 0.5) - 4.0) < 1e-9)
  }

  test("coverDist is +inf when overlap is insufficient") {
    val a = line(1, 0, 101, 10, 0, 0, 0.1, 0)
    val b = line(2, 900, 11, 10, 90, 0, 0.1, 0)
    assert(TrajDistance.coverDist(a, b, 0.5).isPosInfinity)
  }

  test("single-sample sub-trajectory compares by point distance") {
    val a = Series(1, Array(50L), Array(3.0), Array(4.0), Array(0.0))
    val b = line(2, 0, 11, 10, 0, 0, 0, 0) // sits at origin
    val (d, _) = TrajDistance.timeSyncStats(a, b)
    assert(math.abs(d - 5.0) < 1e-9)
  }

  test("distance is non-negative and finite for overlapping trajectories") {
    val a = line(1, 0, 20, 5, 0, 0, 2, 1)
    val b = line(2, 30, 20, 5, 10, -5, 1, 2)
    val (d, overlap) = TrajDistance.timeSyncStats(a, b)
    assert(d >= 0 && !d.isInfinite && overlap > 0)
  }
}
