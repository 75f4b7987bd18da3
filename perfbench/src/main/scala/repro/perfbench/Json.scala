package repro.perfbench

/** Minimal JSON rendering for the result line: maps, sequences, strings,
  * booleans and numbers. Non-finite numbers become `null`.
  */
object Json {
  def render(v: Any): String = v match {
    case null | None       => "null"
    case Some(x)           => render(x)
    case b: Boolean        => b.toString
    case d: Double         => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float          => render(f.toDouble)
    case n: Int            => n.toString
    case n: Long           => n.toString
    case s: String         => quote(s)
    case m: Map[_, _]      =>
      m.toSeq.sortBy(_._1.toString)
        .map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]   => xs.map(render).mkString("[", ",", "]")
    case xs: Array[_]      => render(xs.toSeq)
    case other             => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
