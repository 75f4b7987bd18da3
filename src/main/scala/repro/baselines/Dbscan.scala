package repro.baselines

import scala.collection.mutable

/** DBSCAN's labelling and expansion loop, shared by TRACLUS (over line
  * segments) and convoy discovery (over one timestamp's positions).
  */
private[baselines] object Dbscan {

  /** A label per item 0 until n: cluster ids count up from 0 in the order
    * their first core item appears, and -1 is noise. `neighbors(i)` lists the
    * items within ε of item i, i excluded; an item with at least `minPts - 1`
    * neighbours is a core item.
    */
  def labels(n: Int, minPts: Int, neighbors: Int => Seq[Int]): Array[Int] = {
    val labels = Array.fill(n)(-2) // -2 unvisited, -1 noise
    var cid = 0
    for (i <- 0 until n if labels(i) == -2) {
      val nb = neighbors(i)
      if (nb.length + 1 < minPts) labels(i) = -1
      else {
        labels(i) = cid
        val queue = mutable.Queue(nb: _*)
        while (queue.nonEmpty) {
          val j = queue.dequeue()
          if (labels(j) == -1) labels(j) = cid
          else if (labels(j) == -2) {
            labels(j) = cid
            val nj = neighbors(j)
            if (nj.length + 1 >= minPts) queue ++= nj
          }
        }
        cid += 1
      }
    }
    labels
  }
}
