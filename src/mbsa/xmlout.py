"""The XML text of every artifact, written without a DOM, and the document
check that every XML reader starts with.

An element is a ``(tag, attributes, children)`` triple: a dict of string
attribute values, written in insertion order, and a sequence of elements.  The
text is exactly what ``ElementTree.indent`` and ``ElementTree.tostring(...,
encoding="unicode")`` give for the same tree, plus a final newline, so only
the XML readers load ElementTree.
"""

# ElementTree's attribute escapes: markup characters, and the whitespace that
# an XML reader would otherwise normalize to a space
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def to_xml(element: tuple) -> str:
    """One element per line, indented two spaces a level; an element with no
    children is written ``<tag ... />``."""
    lines = []

    def write(element, pad):
        tag, attributes, children = element
        head = pad + "<" + tag + "".join(f' {k}="{v.translate(_ESCAPES)}"' for k, v in attributes.items())
        if not children:
            lines.append(head + " />")
            return
        lines.append(head + ">")
        for child in children:
            write(child, pad + "  ")
        lines.append(f"{pad}</{tag}>")

    write(element, "")
    return "\n".join(lines) + "\n"


def _read_xml(text: str, root_tag: str, attributes: dict[str, set[str]], error):
    """Parse ``text`` as a ``<root_tag>`` document in which an element of a
    tag in ``attributes`` has only the attributes listed for it (an element
    of another tag is left to the reader).  Returns the root element and
    ``attr(element, name)``, the value of an attribute the element must
    have.  ``error(message)`` is the exception raised on each violation."""
    from xml.etree import ElementTree as ET

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise error(f"malformed XML: {exc}") from None
    if root.tag != root_tag:
        raise error(f"expected <{root_tag}> document, found <{root.tag}>")
    for el in root.iter():
        allowed = attributes.get(el.tag)
        extra = None if allowed is None else next((a for a in el.attrib if a not in allowed), None)
        if extra is not None:
            raise error(f"unexpected attribute {extra!r} on <{el.tag}>")

    def attr(el, name: str) -> str:
        if name not in el.attrib:
            raise error(f"<{el.tag}> lacks the attribute {name!r}")
        return el.attrib[name]

    return root, attr
