package repro.rtree

import scala.collection.mutable.ArrayBuffer

/** Axis-aligned box in (x, y, t) — the unit of the pg3D-Rtree substitute.
  * Degenerate boxes (point-like in any dimension) are allowed.
  */
final case class Box3D(minX: Double, maxX: Double,
                       minY: Double, maxY: Double,
                       minT: Long, maxT: Long) {
  require(minX <= maxX && minY <= maxY && minT <= maxT, s"malformed box: $this")

  def intersects(o: Box3D): Boolean =
    minX <= o.maxX && o.minX <= maxX &&
    minY <= o.maxY && o.minY <= maxY &&
    minT <= o.maxT && o.minT <= maxT

  def contains(o: Box3D): Boolean =
    minX <= o.minX && o.maxX <= maxX &&
    minY <= o.minY && o.maxY <= maxY &&
    minT <= o.minT && o.maxT <= maxT

  def union(o: Box3D): Box3D = Box3D(
    math.min(minX, o.minX), math.max(maxX, o.maxX),
    math.min(minY, o.minY), math.max(maxY, o.maxY),
    math.min(minT, o.minT), math.max(maxT, o.maxT))
}

/** Static 3D R-tree over (x, y, t) boxes with integer payloads.
  *
  * This is the `pg3D-Rtree` substrate of the paper (there built on
  * PostgreSQL's GiST): the index built fresh on a range query's result and
  * probed with box-intersection queries. It is immutable, and
  * [[RTree3D.bulkLoad]] (a Sort-Tile-Recursive pack) is the only way to
  * build one.
  */
final class RTree3D private (root: Option[RTree3D.Node], val size: Int) {
  import RTree3D._

  def isEmpty: Boolean = size == 0

  /** Bounding box of everything in the tree (None when empty). */
  def bounds: Option[Box3D] = root.map(_.box)

  /** Payloads of all entries whose box intersects `q`. */
  def query(q: Box3D): IndexedSeq[Int] = {
    val out = ArrayBuffer.empty[Int]
    def rec(n: Node): Unit = n match {
      case l: Leaf  => l.entries.foreach { case (b, p) => if (b.intersects(q)) out += p }
      case i: Inner => i.children.foreach(c => if (c.box.intersects(q)) rec(c))
    }
    root.foreach(r => if (r.box.intersects(q)) rec(r))
    out.toIndexedSeq
  }

  /** Tree depth (0 when empty) — exposed for structural tests. */
  def depth: Int = {
    def rec(n: Node): Int = n match {
      case _: Leaf  => 1
      case i: Inner => 1 + rec(i.children.head)
    }
    root.map(rec).getOrElse(0)
  }

  /** Structural invariant check used by tests: every node holds 1 to
    * [[RTree3D.Fanout]] entries and its box covers them, and all leaves sit
    * at one depth.
    */
  def invariantsHold: Boolean = {
    val leafLevel = depth
    def rec(n: Node, level: Int): Boolean = n match {
      case l: Leaf =>
        level == leafLevel && l.entries.nonEmpty && l.entries.length <= Fanout &&
          l.entries.forall { case (b, _) => l.box.contains(b) }
      case i: Inner =>
        i.children.nonEmpty && i.children.length <= Fanout &&
          i.children.forall(c => i.box.contains(c.box) && rec(c, level + 1))
    }
    root.forall(rec(_, 1))
  }
}

object RTree3D {

  /** Node capacity (GiST default page fanout stand-in). */
  val Fanout = 16

  private sealed trait Node { def box: Box3D }
  private final class Leaf(val box: Box3D, val entries: IndexedSeq[(Box3D, Int)]) extends Node
  private final class Inner(val box: Box3D, val children: IndexedSeq[Node]) extends Node

  /** Sort-Tile-Recursive pack (Leutenegger et al., ICDE 1997): tile the
    * entries into leaves, then each level's nodes into parents, until one
    * root is left.
    */
  def bulkLoad(items: Seq[(Box3D, Int)]): RTree3D = {
    if (items.isEmpty) return new RTree3D(None, 0)
    def cover(bs: Iterable[Box3D]): Box3D = bs.reduce(_.union(_))
    var level: IndexedSeq[Node] =
      tile(items.toIndexedSeq)(_._1).map(g => new Leaf(cover(g.map(_._1)), g))
    while (level.length > 1)
      level = tile(level)(_.box).map(g => new Inner(cover(g.map(_.box)), g))
    new RTree3D(Some(level.head), items.size)
  }

  /** Groups of at most [[Fanout]] items: S slabs by x-centre, each cut into
    * S runs by y-centre, each cut into groups by t-centre, where S is the
    * cube root of the number of groups. (A box's lower plus upper bound
    * orders boxes as its centre does.)
    */
  private def tile[A](items: IndexedSeq[A])(boxOf: A => Box3D): IndexedSeq[IndexedSeq[A]] = {
    val s = math.ceil(math.cbrt(math.ceil(items.length.toDouble / Fanout))).toInt
    def by(centre: Box3D => Double)(as: IndexedSeq[A]): IndexedSeq[A] = as.sortBy(a => centre(boxOf(a)))
    (for {
      slab  <- by(b => b.minX + b.maxX)(items).grouped(Fanout * s * s)
      run   <- by(b => b.minY + b.maxY)(slab).grouped(Fanout * s)
      group <- by(b => b.minT.toDouble + b.maxT)(run).grouped(Fanout)
    } yield group).toIndexedSeq
  }
}
