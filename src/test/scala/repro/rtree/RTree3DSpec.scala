package repro.rtree

import org.scalatest.funsuite.AnyFunSuite

class RTree3DSpec extends AnyFunSuite {

  private def box(x0: Double, y0: Double, t0: Long, w: Double = 1.0, h: Double = 1.0,
                  d: Long = 10L): Box3D = Box3D(x0, x0 + w, y0, y0 + h, t0, t0 + d)

  private def randomBox(rnd: scala.util.Random): Box3D = {
    val x = rnd.nextDouble() * 200 - 100
    val y = rnd.nextDouble() * 200 - 100
    val t = rnd.nextInt(1000).toLong
    Box3D(x, x + rnd.nextDouble() * 20, y, y + rnd.nextDouble() * 20, t, t + rnd.nextInt(100))
  }

  /** Box spanning only a temporal period (all of space). */
  private def temporal(t0: Long, t1: Long): Box3D =
    Box3D(Double.MinValue, Double.MaxValue, Double.MinValue, Double.MaxValue, t0, t1)

  private def randomBoxes(n: Int, seed: Long): IndexedSeq[Box3D] = {
    val rnd = new scala.util.Random(seed)
    IndexedSeq.fill(n)(randomBox(rnd))
  }

  // ------------------------------------------------------------------ Box3D

  test("a box intersects itself") {
    val b = box(0, 0, 0)
    assert(b.intersects(b))
  }

  test("disjoint boxes in x do not intersect") {
    assert(!box(0, 0, 0).intersects(box(10, 0, 0)))
  }

  test("disjoint boxes in time do not intersect even when spatially equal") {
    assert(!box(0, 0, 0).intersects(box(0, 0, 100)))
  }

  test("touching boxes intersect (closed boxes)") {
    assert(box(0, 0, 0, w = 5).intersects(box(5, 0, 0)))
  }

  test("contains implies intersects (randomized)") {
    val rnd = new scala.util.Random(3)
    var checked = 0
    for (_ <- 0 until 500) {
      val a = randomBox(rnd); val b = randomBox(rnd)
      if (a.contains(b)) { checked += 1; assert(a.intersects(b)) }
      val u = a.union(b) // union always contains both
      assert(u.contains(a) && u.contains(b))
    }
  }

  test("union contains both operands on hand-picked boxes") {
    val a = box(0, 0, 0); val b = box(50, -50, 500)
    val u = a.union(b)
    assert(u.contains(a) && u.contains(b))
  }

  test("intersection is symmetric (randomized)") {
    val rnd = new scala.util.Random(4)
    for (_ <- 0 until 500) {
      val a = randomBox(rnd); val b = randomBox(rnd)
      assert(a.intersects(b) == b.intersects(a))
    }
  }

  test("malformed boxes are rejected") {
    intercept[IllegalArgumentException] { Box3D(1, 0, 0, 1, 0, 1) }
    intercept[IllegalArgumentException] { Box3D(0, 1, 0, 1, 5, 1) }
  }

  test("temporal box spans all of space") {
    val w = temporal(10, 20)
    assert(w.intersects(box(1e8, -1e8, 15)))
    assert(!w.intersects(box(0, 0, 100)))
  }

  // ----------------------------------------------------------------- RTree3D

  /** Payloads the tree returns for `q`, sorted, against a brute-force scan:
    * compared as multisets, so a lost or a repeated entry both fail.
    */
  private def assertMatchesBruteForce(t: RTree3D, items: Seq[(Box3D, Int)], q: Box3D,
                                      clue: String): Unit = {
    val expected = items.collect { case (b, i) if b.intersects(q) => i }.sorted
    assert(t.query(q).sorted == expected, clue)
  }

  test("empty tree answers empty and reports size 0") {
    val t = RTree3D.bulkLoad(Seq.empty)
    assert(t.isEmpty && t.size == 0 && t.query(box(0, 0, 0)).isEmpty && t.depth == 0)
    assert(t.bounds.isEmpty && t.invariantsHold)
  }

  test("query results match brute force on random data (bulk load)") {
    for (seed <- 10 until 20) {
      val items = randomBoxes(600 + seed * 37, seed).zipWithIndex
      val t = RTree3D.bulkLoad(items)
      assert(t.size == items.length && t.depth >= 3, s"seed=$seed depth=${t.depth}")
      val rnd = new scala.util.Random(seed + 200)
      for (_ <- 0 until 20) {
        val q = randomBox(rnd)
        assertMatchesBruteForce(t, items, q, s"seed=$seed q=$q")
      }
      assertMatchesBruteForce(t, items, temporal(Long.MinValue, Long.MaxValue), s"seed=$seed all")
    }
  }

  test("structural invariants hold after bulk load") {
    for (n <- Seq(1, RTree3D.Fanout, RTree3D.Fanout + 1, 300, 5000)) {
      val boxes = (0 until n).map(i => (box(i % 20 * 10.0, i / 20 * 10.0, i * 3L), i))
      val t = RTree3D.bulkLoad(boxes)
      assert(t.invariantsHold && t.size == n, s"n=$n")
      if (n <= RTree3D.Fanout) assert(t.depth == 1, s"n=$n")
      if (n == RTree3D.Fanout + 1) assert(t.depth == 2)
      if (n == 5000) assert(t.depth >= 3, s"depth=${t.depth}")
    }
  }

  test("bounds cover every inserted box") {
    val boxes = (0 until 50).map(i => box(i * 2.0, -i * 3.0, i * 7L))
    val t = RTree3D.bulkLoad(boxes.zipWithIndex)
    val root = t.bounds.get
    boxes.foreach(b => assert(root.contains(b)))
  }

  test("temporal query returns exactly the entries alive in the window") {
    val t = RTree3D.bulkLoad((0 until 100).map(i => (box(i, i, i * 10L, d = 9L), i)))
    val got = t.query(temporal(200, 299)).sorted
    assert(got == (20 to 29).toVector)
  }

  test("duplicate boxes with distinct payloads are all returned") {
    val t = RTree3D.bulkLoad((0 until 40).map(i => (box(1, 1, 1), i)))
    assert(t.query(box(1, 1, 1)).sorted == (0 until 40).toVector)
  }

  test("bulk load of an empty collection yields an empty tree") {
    assert(RTree3D.bulkLoad(Seq.empty).isEmpty)
  }

  test("point-like (degenerate) boxes are supported") {
    val t = RTree3D.bulkLoad(Seq((Box3D(5, 5, 5, 5, 100, 100), 1)))
    assert(t.query(Box3D(0, 10, 0, 10, 90, 110)) == IndexedSeq(1))
    assert(t.query(Box3D(0, 10, 0, 10, 101, 110)).isEmpty)
  }

  test("queries on a clustered dataset stay correct after mixed workload") {
    val rnd = new scala.util.Random(9)
    val all = (0 until 2000).map { i =>
      val cx = (i % 4) * 500.0
      (box(cx + rnd.nextDouble() * 50, cx + rnd.nextDouble() * 50, rnd.nextInt(5000)), i)
    }
    val t = RTree3D.bulkLoad(all)
    assert(t.invariantsHold && t.depth >= 3)
    assertMatchesBruteForce(t, all, Box3D(450, 1100, 400, 1200, 0, 5100), "cross-cluster window")
    assertMatchesBruteForce(t, all, temporal(0, 5100), "all of space and time")
    val qr = new scala.util.Random(10)
    for (_ <- 0 until 50) {
      val x = qr.nextDouble() * 1600; val y = qr.nextDouble() * 1600; val t0 = qr.nextInt(5000).toLong
      val q = Box3D(x, x + qr.nextDouble() * 200, y, y + qr.nextDouble() * 200, t0, t0 + qr.nextInt(1000))
      assertMatchesBruteForce(t, all, q, s"q=$q")
    }
  }
}
